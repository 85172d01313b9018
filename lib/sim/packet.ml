(* [size] in bits 0-13, [seq] in bits 14-41, [flow] in bits 42-61: every
   packet is a non-negative int below 2^62, so [none = -1] is no packet. *)
type t = int

let size_bits = 14

let seq_bits = 28

let flow_bits = 20

let max_size = (1 lsl size_bits) - 1

let max_seq = (1 lsl seq_bits) - 1

let seq_shift = size_bits

let flow_shift = size_bits + seq_bits

let none = -1

let default_data_size = 1500

(* [asr] keeps [flow none = -1] *)
let[@inline] flow p = p asr flow_shift [@@alloc_free]

let[@inline] seq p = (p lsr seq_shift) land max_seq [@@alloc_free]

let[@inline] size p = p land max_size [@@alloc_free]

(* [x lsr bits <> 0] also catches a negative [x] *)
let[@inline] make ~flow ~seq ~size ~now:_ () =
  if flow lsr flow_bits <> 0 then invalid_arg "Packet.make: flow out of range";
  if seq lsr seq_bits <> 0 then invalid_arg "Packet.make: seq out of range";
  if size lsr size_bits <> 0 then invalid_arg "Packet.make: size out of range";
  (flow lsl flow_shift) lor (seq lsl seq_shift) lor size
[@@alloc_free]
