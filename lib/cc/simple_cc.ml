module Rate = Units.Rate
module B = Units.Bytes

(* the answer is built once: the pacer asks on every wake *)
let const_rate ~rate =
  let pacing = Some (Rate.bps_exn (Rate.to_bps rate)) in
  { Cc_types.name = "cbr";
    on_ack = (fun _ -> ());
    on_loss = (fun _ -> ());
    on_tick = None;
    cwnd = (fun () -> B.bytes infinity);
    pacing_rate = (fun () -> pacing) }

let mss = 1500

let fixed_window ~segments () =
  if segments <= 0 then invalid_arg "Simple_cc.fixed_window: segments <= 0";
  let cwnd = B.of_int (mss * segments) in
  { Cc_types.name = "fixed-window";
    on_ack = (fun _ -> ());
    on_loss = (fun _ -> ());
    on_tick = None;
    cwnd = (fun () -> cwnd);
    pacing_rate = (fun () -> None) }
