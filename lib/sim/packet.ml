type t = {
  flow : int;
  seq : int;
  size : int;
  mutable ecn : bool;
}

let default_data_size = 1500

let make ~flow ~seq ~size ~now:_ () = { flow; seq; size; ecn = false }
