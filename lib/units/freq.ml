type t = float

let hz x = x
[@@unit_ctor "freq"]

let of_float x = x
[@@unit_ctor "freq"]

let to_hz x = x
[@@unit_accessor "freq"]

let to_float x = x
[@@unit_accessor "freq"]

let unknown = Float.nan

let is_known x = not (Float.is_nan x)

let scale k x = k *. x

let ratio a b = a /. b

let min = Float.min

let max = Float.max

let period f = Time.secs (1. /. f)
[@@unit_conv "1/freq = time"]

let compare = Float.compare

let equal = Float.equal

let ( < ) a b = Float.compare a b < 0

let ( <= ) a b = Float.compare a b <= 0

let ( > ) a b = Float.compare a b > 0

let ( >= ) a b = Float.compare a b >= 0
