(* Fig. 16: multiple Nimbus flows with no other cross traffic.  Flows arrive
   staggered and leave; with the pulser/watcher protocol they share the link
   fairly, keep at most one pulser, and hold delay-control mode (low RTTs)
   nearly all the time.  Pulser hand-off happens via the randomized
   election when the current pulser departs. *)

module Engine = Nimbus_sim.Engine
module Nimbus = Nimbus_core.Nimbus
module Flow = Nimbus_cc.Flow
module Fairness = Nimbus_metrics.Fairness
module Time = Units.Time

let id = "fig16"

let title = "Fig 16: multiple Nimbus flows, staggered arrivals"

let run (p : Common.profile) =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let stagger = Common.scaled p 120. in
  let life = 4. *. stagger in
  let n = 4 in
  let horizon = (float_of_int n *. stagger) +. life in
  let net = Common.setup ~seed:16 l in
  let { Common.engine; bottleneck = bn; _ } = net in
  (* Copa's default mode as the delay-control algorithm: its target rate
     1/(delta*d_q) is the same for every flow sharing the queue, so shares
     equalize -- BasicDelay's rate rule is satisfied by any split, and a
     late-joining Vegas converges too slowly at this scale *)
  let sch i =
    Common.nimbus ~name:(Printf.sprintf "nimbus%d" i) ~delay:`Copa_default
      ~multi_flow:true ~seed:(100 + (i * 7)) ()
  in
  let started =
    List.init n (fun i ->
        let start = float_of_int i *. stagger in
        let running =
          (sch i).Common.start_flow net ~start:(Time.secs start) ()
        in
        Engine.schedule_at engine (Time.secs (start +. life)) (fun () ->
            Flow.apply running.Common.flow Flow.Control.Stop);
        (i, start, running))
  in
  (* sample: pulser count, delay-mode fraction, queue delay *)
  let pulser_excess = ref 0 and samples = ref 0 and delay_mode = ref 0 in
  let qdelays = ref [] in
  Engine.every engine ~dt:(Time.ms 500.) ~start:(Time.secs 10.)
    ~until:(Time.secs horizon) (fun () ->
      let now = Time.to_secs (Engine.now engine) in
      let active =
        List.filter
          (fun (_, start, r) ->
            now >= start +. 10. && not (Flow.stopped r.Common.flow))
          started
      in
      if active <> [] then begin
        incr samples;
        let pulsers =
          List.length
            (List.filter
               (fun (_, _, r) ->
                 match r.Common.nimbus with
                 | Some nim -> Nimbus.role nim = Nimbus.Pulser
                 | None -> false)
               active)
        in
        if pulsers > 1 then incr pulser_excess;
        let in_delay =
          List.for_all
            (fun (_, _, r) ->
              match r.Common.nimbus with
              | Some nim -> Nimbus.mode nim = Nimbus.Delay
              | None -> false)
            active
        in
        if in_delay then incr delay_mode;
        qdelays :=
          Time.to_secs (Nimbus_sim.Bottleneck.queue_delay bn) :: !qdelays
      end);
  (* per-flow throughput measured over the window where all four are live *)
  let all_live_lo = (float_of_int (n - 1) *. stagger) +. 10. in
  let all_live_hi = float_of_int n *. stagger in
  let tput_series =
    List.map
      (fun (i, _, r) ->
        ( i,
          Nimbus_metrics.Monitor.flow_throughput engine r.Common.flow
            ~interval:(Time.secs 1.0) ~until:(Time.secs horizon) () ))
      started
  in
  Engine.run_until engine (Time.secs horizon);
  let shares =
    List.map
      (fun (_, s) -> Common.mean s ~lo:all_live_lo ~hi:all_live_hi)
      tput_series
  in
  let qd = Array.of_list !qdelays in
  let frac a b = if b = 0 then nan else float_of_int a /. float_of_int b in
  [ Table.make ~title
      ~header:[ "metric"; "value" ]
      ~notes:
        [ "paper: near-equal shares, <=1 pulser, delay mode most of the \
           time";
          "partial: shares equalize only roughly (Jain ~0.7-0.8) and \
           pulser conflicts persist longer than the paper's -- see \
           EXPERIMENTS.md" ]
      ([ [ "flows"; string_of_int n ];
         [ "jain index (all live)";
           Table.fmt_float (Fairness.jain (Array.of_list shares)) ];
         [ "multi-pulser sample fraction";
           Table.fmt_pct (frac !pulser_excess !samples) ];
         [ "all-in-delay-mode fraction"; Table.fmt_pct (frac !delay_mode !samples) ];
         [ "mean queue delay (ms)";
           Table.fmt_ms (Nimbus_dsp.Stats.mean qd) ] ]
      @ List.mapi
          (fun i share ->
            [ Printf.sprintf "flow %d tput all-live (Mbps)" i;
              Table.fmt_mbps share ])
          shares) ]
