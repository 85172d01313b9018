type t = float

external secs : float -> t = "%identity"

let ms x = x *. 1e-3
[@@unit_ctor "time"]

let us x = x *. 1e-6
[@@unit_ctor "time"]

external of_float : float -> t = "%identity"

external to_secs : t -> float = "%identity"

let to_ms x = x *. 1e3
[@@unit_accessor "time"]

external to_float : t -> float = "%identity"

let zero = 0.

let unknown = Float.nan

let is_known x = not (Float.is_nan x)

let is_finite = Float.is_finite

let add = ( +. )

let sub = ( -. )

let abs = Float.abs

let scale k x = k *. x

let ratio a b = a /. b

let min = Float.min

let max = Float.max

let clamp ~lo ~hi x = Float.max lo (Float.min hi x)

let compare = Float.compare

let equal = Float.equal

let ( < ) a b = Float.compare a b < 0

let ( <= ) a b = Float.compare a b <= 0

let ( > ) a b = Float.compare a b > 0

let ( >= ) a b = Float.compare a b >= 0
