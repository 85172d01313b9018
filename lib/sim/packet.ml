module Time = Units.Time

type t = {
  flow : int;
  seq : int;
  size : int;
  mutable sent_at : Time.t;
  mutable enqueued_at : Time.t;
  mutable dequeued_at : Time.t;
  retransmission : bool;
  mutable ecn : bool;
}

let default_data_size = 1500

let make ~flow ~seq ~size ~now ?(retransmission = false) () =
  { flow; seq; size; sent_at = now; enqueued_at = Time.unknown;
    dequeued_at = Time.unknown; retransmission; ecn = false }

let queueing_delay p =
  if not (Time.is_known p.dequeued_at) then Time.unknown
  else Time.sub p.dequeued_at p.enqueued_at
