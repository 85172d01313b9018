module Rate = Units.Rate

let const_rate ~rate =
  let pace = Rate.to_bps (Rate.bps_exn (Rate.to_bps rate)) in
  Cc_types.make ~name:"cbr" ~on_ack:ignore ~on_loss:ignore
    (Cc_types.out ~cwnd:infinity ~pace)

let mss = 1500

let fixed_window ~segments () =
  if segments <= 0 then invalid_arg "Simple_cc.fixed_window: segments <= 0";
  Cc_types.make ~name:"fixed-window" ~on_ack:ignore ~on_loss:ignore
    (Cc_types.out ~cwnd:(float_of_int (mss * segments)) ~pace:nan)
