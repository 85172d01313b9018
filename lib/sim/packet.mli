(** Packets as they traverse the bottleneck.

    A packet is one immediate int that packs its flow, its per-flow
    sequence number and its payload size:

    {v
     bit 61        42 41                       14 13          0
        |   flow    |           seq             |    size     |
    v}

    so a flow id is at most [2^20 - 1], a sequence number at most
    [2^28 - 1] and a size at most 16383 bytes.  The type is immediate, so
    making a packet allocates nothing, storing one into a link FIFO, an
    event cell or a serving slot needs no write barrier, and a packet
    waiting in a long queue is never promoted to the major heap.  Nothing
    mutates a packet after it is made.

    Nothing downstream keeps timestamps in a packet — the sender keeps its
    own send times and a link its own enqueue times.  ACKs are not
    materialised as packets on a reverse queue: the receiver leg is
    modelled as a pure delay (the paper's single-bottleneck network model,
    Fig. 2), so acknowledgements are scheduled events carrying the data
    packet back. *)

type t = private int

(** [none] is a placeholder that is no packet: an empty slot holds it.
    [flow none] is [-1]. *)
val none : t

(** Conventional data packet size, in bytes. *)
val default_data_size : int

(** [make ~flow ~seq ~size ~now ()] is the packet of [flow]'s sequence
    number [seq], [size] bytes long.  [now] is ignored: packets carry no
    send time.  The argument stays only so that existing callers compile
    unchanged.
    @raise Invalid_argument if a field is negative or above its maximum. *)
val make :
  flow:int -> seq:int -> size:int -> now:Units.Time.t -> unit -> t

(** [flow p] is [p]'s flow identifier. *)
val flow : t -> int

(** [seq p] is [p]'s per-flow sequence number. *)
val seq : t -> int

(** [size p] is [p]'s size in bytes on the wire. *)
val size : t -> int
