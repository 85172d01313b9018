type t = float

let bps x = x
[@@unit_ctor "rate"]

let mbps x = x *. 1e6
[@@unit_ctor "rate"]

let gbps x = x *. 1e9
[@@unit_ctor "rate"]

let bps_exn x =
  if not (Float.is_finite x) || Float.compare x 0. <= 0 then
    invalid_arg "Rate.bps_exn: rate must be finite and positive";
  x
[@@unit_ctor "rate"]

let of_float x = x
[@@unit_ctor "rate"]

let to_bps x = x
[@@unit_accessor "rate"]

let to_mbps x = x /. 1e6
[@@unit_accessor "rate"]

let to_float x = x
[@@unit_accessor "rate"]

let zero = 0.

let unknown = Float.nan

let is_known x = not (Float.is_nan x)

let add = ( +. )

let sub = ( -. )

let scale k x = k *. x

let ratio a b = a /. b

let min = Float.min

let max = Float.max

let clamp ~lo ~hi x = Float.max lo (Float.min hi x)

let volume r ~over = Bytes.of_bits (r *. Time.to_secs over)
[@@unit_conv "rate x time = bytes"]

let tx_time r v = Time.secs (Bytes.to_bits v /. r)
[@@unit_conv "bytes / rate = time"]

let compare = Float.compare

let equal = Float.equal

let ( < ) a b = Float.compare a b < 0

let ( <= ) a b = Float.compare a b <= 0

let ( > ) a b = Float.compare a b > 0

let ( >= ) a b = Float.compare a b >= 0
