module Time = Units.Time
module Rate = Units.Rate

(* AQM state stays raw float internally; the .mli is the typed boundary. *)
type decision =
  | Admit
  | Mark
  | Drop

type pie_state = {
  target_delay : float; (* seconds *)
  link_rate_bps : float;
  rng : Rng.t;
  ecn : bool;
  mutable drop_prob : float;
  mutable last_update : float;
  mutable old_delay : float;
}

type kind =
  | Droptail
  | Pie of pie_state

type t = {
  kind : kind;
  capacity_bytes : int;
}

let droptail ~capacity_bytes =
  if capacity_bytes <= 0 then invalid_arg "Qdisc.droptail: capacity <= 0";
  { kind = Droptail; capacity_bytes }

let pie ?(ecn = false) ~capacity_bytes ~target_delay ~link_rate ~rng () =
  let target_delay = Time.to_secs target_delay in
  let link_rate_bps = Rate.to_bps link_rate in
  if capacity_bytes <= 0 then invalid_arg "Qdisc.pie: capacity <= 0";
  if target_delay <= 0. then invalid_arg "Qdisc.pie: target_delay <= 0";
  { kind =
      Pie
        { target_delay; link_rate_bps; rng; ecn; drop_prob = 0.;
          last_update = 0.; old_delay = 0. };
    capacity_bytes }

let capacity_bytes t = t.capacity_bytes

let reads_clock t = match t.kind with Droptail -> false | Pie _ -> true

let pie_update_interval = 0.015

let pie_alpha = 0.125

let pie_beta = 1.25

(* RFC 8033 scales alpha/beta down while drop_prob is small so the controller
   stays stable near zero. *)
let pie_scale p =
  if p < 0.000001 then 1. /. 2048.
  else if p < 0.00001 then 1. /. 512.
  else if p < 0.0001 then 1. /. 128.
  else if p < 0.001 then 1. /. 32.
  else if p < 0.01 then 1. /. 8.
  else if p < 0.1 then 1. /. 2.
  else 1.

(* RFC 8033 §5.1: while drop probability is at most this, an ECN-enabled
   PIE marks instead of dropping; past it congestion is severe enough that
   marking alone cannot clear the standing queue. *)
let pie_mark_ecnth = 0.1

let pie_decide s ~now ~qlen_bytes ~pkt_size ~capacity =
  if qlen_bytes + pkt_size > capacity then Drop
  else begin
    let qdelay = float_of_int (qlen_bytes * 8) /. s.link_rate_bps in
    if now -. s.last_update >= pie_update_interval then begin
      let scale = pie_scale s.drop_prob in
      let dp =
        (pie_alpha *. (qdelay -. s.target_delay))
        +. (pie_beta *. (qdelay -. s.old_delay))
      in
      s.drop_prob <- Float.max 0. (Float.min 1. (s.drop_prob +. (dp *. scale)));
      (* decay when the queue is idle-ish *)
      if qdelay < s.target_delay /. 2. && s.old_delay < s.target_delay /. 2.
      then s.drop_prob <- s.drop_prob *. 0.98;
      s.old_delay <- qdelay;
      s.last_update <- now
    end;
    (* burst protection: never drop when the queue is nearly empty.  The
       random draw happens on exactly the same state trajectory whether ECN
       is on or off, so enabling ECN changes the verdict (Mark vs Drop) but
       never the RNG stream. *)
    if qdelay < s.target_delay /. 2. && s.drop_prob < 0.2 then Admit
    else if Rng.bool s.rng ~p:s.drop_prob then
      if s.ecn && s.drop_prob <= pie_mark_ecnth then Mark else Drop
    else Admit
  end

let decide t ~now ~qlen_bytes ~pkt_size =
  match t.kind with
  | Droptail ->
    if qlen_bytes + pkt_size <= t.capacity_bytes then Admit else Drop
  | Pie s ->
    pie_decide s ~now:(Time.to_secs now) ~qlen_bytes ~pkt_size
      ~capacity:t.capacity_bytes

let name t =
  match t.kind with
  | Droptail -> "droptail"
  | Pie _ -> "pie"
