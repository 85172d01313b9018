module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Flow = Nimbus_cc.Flow
module Time = Units.Time

let probe engine ~interval ~until f =
  let series = Series.create () in
  Engine.every engine ~dt:interval ~until (fun () ->
      Series.add series ~time:(Engine.now engine) ~value:(f ()));
  series

let throughput engine ~interval ~until counter =
  let series = Series.create () in
  let interval_s = Time.to_secs interval in
  let prev = ref (counter ()) in
  Engine.every engine ~dt:interval ~until (fun () ->
      let cur = counter () in
      let bps = float_of_int ((cur - !prev) * 8) /. interval_s in
      prev := cur;
      Series.add series ~time:(Engine.now engine) ~value:bps);
  series

let flow_throughput engine flow ~interval ~until () =
  throughput engine ~interval ~until (fun () ->
      Flow.received_bytes flow)

let queue_delay engine bottleneck ~interval ~until () =
  probe engine ~interval ~until (fun () ->
      Time.to_secs (Bottleneck.queue_delay bottleneck))

let flow_rtt engine flow ~interval ~until () =
  probe engine ~interval ~until (fun () ->
      Time.to_secs (Flow.last_rtt flow))
