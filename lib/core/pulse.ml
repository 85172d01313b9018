module Time = Units.Time
module Rate = Units.Rate
module Freq = Units.Freq

type shape =
  | Asymmetric
  | Symmetric

let pi = 4.0 *. atan 1.0

(* The waveform maths runs on raw floats (bits/s, Hz, seconds); the typed
   boundary is the .mli. *)

(* inlined into both readers below: a float returned from a call is boxed *)
let[@inline] value_raw ~shape ~amplitude ~freq t =
  if freq <= 0. then invalid_arg "Pulse.value: freq <= 0";
  if amplitude < 0. then invalid_arg "Pulse.value: negative amplitude";
  let period = 1. /. freq in
  let phase = Float.rem t period in
  let phase = if phase < 0. then phase +. period else phase in
  match shape with
  | Symmetric -> amplitude *. sin (2. *. pi *. phase /. period)
  | Asymmetric ->
    let quarter = period /. 4. in
    if phase < quarter then
      (* positive half-sine over the first quarter *)
      amplitude *. sin (pi *. phase /. quarter)
    else begin
      (* negative half-sine, one third of the amplitude, over the rest *)
      let rest = period -. quarter in
      -.(amplitude /. 3.) *. sin (pi *. (phase -. quarter) /. rest)
    end

let value ~shape ~amplitude ~freq t =
  Rate.bps
    (value_raw ~shape ~amplitude:(Rate.to_bps amplitude)
       ~freq:(Freq.to_hz freq) (Time.to_secs t))

let value_to ~shape reg i =
  Float.Array.set reg (i + 3)
    (value_raw ~shape ~amplitude:(Float.Array.get reg i)
       ~freq:(Float.Array.get reg (i + 1)) (Float.Array.get reg (i + 2)))
[@@alloc_free]

let min_send_rate ~shape ~amplitude =
  match shape with
  | Symmetric -> amplitude
  | Asymmetric -> Rate.scale (1. /. 3.) amplitude

let mean ~shape ~amplitude ~freq ~samples =
  if samples <= 0 then invalid_arg "Pulse.mean: samples <= 0";
  let amplitude = Rate.to_bps amplitude in
  let freq = Freq.to_hz freq in
  let period = 1. /. freq in
  let dt = period /. float_of_int samples in
  let acc = ref 0. in
  for i = 0 to samples - 1 do
    acc :=
      !acc
      +. value_raw ~shape ~amplitude ~freq ((float_of_int i +. 0.5) *. dt)
  done;
  Rate.bps (!acc /. float_of_int samples)
