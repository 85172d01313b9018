type t = float

let bytes x = x
[@@unit_ctor "bytes"]

let of_int n = float_of_int n
[@@unit_ctor "bytes"]

let of_bits b = b /. 8.
[@@unit_ctor "bytes"]

let of_float x = x
[@@unit_ctor "bytes"]

let to_float x = x
[@@unit_accessor "bytes"]

let to_bits x = x *. 8.
[@@unit_accessor "bytes"]

let zero = 0.

let add = ( +. )

let sub = ( -. )

let scale k x = k *. x

let ratio a b = a /. b

let min = Float.min

let max = Float.max

let compare = Float.compare

let equal = Float.equal

let ( < ) a b = Float.compare a b < 0

let ( <= ) a b = Float.compare a b <= 0

let ( > ) a b = Float.compare a b > 0

let ( >= ) a b = Float.compare a b >= 0
