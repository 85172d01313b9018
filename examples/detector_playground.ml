(* The elasticity detector as a standalone building block, no Nimbus: feed
   it a synthetic cross-traffic rate signal and read eta back.  This is the
   "measurement and diagnostic tool" use the paper's introduction suggests.
   Run with: dune exec examples/detector_playground.exe *)

module Elasticity = Nimbus_core.Elasticity
module Pulse = Nimbus_core.Pulse
module Freq = Units.Freq
module Rate = Units.Rate

let pi = 4.0 *. atan 1.0

let () =
  let fp = 5.0 in
  let dt = 0.01 in
  let describe label make_sample =
    let det = Elasticity.create () in
    for i = 0 to 499 do
      Elasticity.add_sample det (make_sample (float_of_int i *. dt))
    done;
    let eta = Elasticity.eta det ~freq:(Freq.hz fp) in
    let verdict =
      match Elasticity.classify det ~freq:(Freq.hz fp) with
      | Some Elasticity.Elastic -> "elastic"
      | Some Elasticity.Inelastic -> "inelastic"
      | None -> "undecided"
    in
    Printf.printf "%-34s eta=%6.2f  -> %s\n" label eta verdict
  in
  (* 1: cross traffic echoing the pulse frequency (elastic reaction) *)
  describe "echoes 5 Hz pulses" (fun t ->
      24e6 +. (4e6 *. sin (2. *. pi *. fp *. t)));
  (* 2: white noise (inelastic) *)
  let rng = Nimbus_sim.Rng.create 9 in
  describe "white noise" (fun _ ->
      24e6 +. (4e6 *. (Nimbus_sim.Rng.uniform rng -. 0.5)));
  (* 3: oscillation at an unrelated frequency *)
  describe "oscillates at 7.4 Hz" (fun t ->
      24e6 +. (4e6 *. sin (2. *. pi *. 7.4 *. t)));
  (* 4: echo + noise + ramp, the realistic case *)
  let rng2 = Nimbus_sim.Rng.create 10 in
  describe "echo + noise + ramp" (fun t ->
      (t *. 2e6) +. 20e6
      +. (3e6 *. sin (2. *. pi *. fp *. t))
      +. (2e6 *. (Nimbus_sim.Rng.uniform rng2 -. 0.5)));
  (* and the pulse waveform itself *)
  Printf.printf "pulse mean over one period: %.3g bps (should be ~0)\n"
    (Rate.to_bps
       (Pulse.mean ~shape:Pulse.Asymmetric ~amplitude:(Rate.mbps 12.)
          ~freq:(Freq.hz fp) ~samples:1000))
