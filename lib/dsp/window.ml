type kind =
  | Rectangular
  | Hann

let pi = 4.0 *. atan 1.0

let coefficients kind n =
  if n <= 0 then [||]
  else if n = 1 then [| 1.0 |]
  else begin
    let denom = float_of_int (n - 1) in
    (* filled in place: a float [Array.init] boxes each element on return *)
    let w = Array.make n 1.0 in
    for i = 0 to n - 1 do
      let x = float_of_int i /. denom in
      w.(i) <-
        (match kind with
         | Rectangular -> 1.0
         | Hann -> 0.5 *. (1.0 -. cos (2.0 *. pi *. x)))
    done;
    w
  end

let coherent_gain kind n =
  if n <= 0 then 0.0
  else begin
    let w = coefficients kind n in
    Array.fold_left ( +. ) 0.0 w /. float_of_int n
  end
