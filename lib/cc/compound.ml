module Time = Units.Time

type state = {
  mutable lwnd : float; (* loss window, bytes *)
  mutable dwnd : float; (* delay window, bytes *)
  mutable ssthresh : float;
  mutable next_update : float;
  mutable recovery_until : float;
  mutable srtt : float;
}

(* Standard Compound parameters *)
let alpha = 0.125

let k_exp = 0.75

let zeta = 0.5

let gamma = 30. (* segments of backlog before the delay window backs off *)

let mss = float_of_int 1500

let make () =
  let s =
    { lwnd = 10. *. mss; dwnd = 0.; ssthresh = infinity;
      next_update = 0.; recovery_until = neg_infinity; srtt = 0.1 }
  in
  let window () = s.lwnd +. s.dwnd in
  let o = Cc_types.out ~cwnd:(window ()) ~pace:nan in
  let on_ack (a : Cc_types.ack) =
    let now = Time.to_secs a.times.now in
    s.srtt <- Time.to_secs a.times.srtt;
    let win = window () in
    if s.lwnd < s.ssthresh then s.lwnd <- s.lwnd +. float_of_int a.bytes
    else s.lwnd <- s.lwnd +. (mss *. float_of_int a.bytes /. win);
    if now >= s.next_update then begin
      s.next_update <- now +. s.srtt;
      let rtt = Float.max s.srtt 1e-4 in
      let base = Float.max (Time.to_secs a.times.min_rtt) 1e-4 in
      let diff_segments = win *. (1. -. (base /. rtt)) /. mss in
      if diff_segments < gamma then begin
        let win_segments = win /. mss in
        let grow = Float.max 0. ((alpha *. (win_segments ** k_exp)) -. 1.) in
        s.dwnd <- s.dwnd +. (grow *. mss)
      end
      else s.dwnd <- Float.max 0. (s.dwnd -. (zeta *. diff_segments *. mss))
    end;
    o.cwnd <- window ()
  in
  let on_loss (l : Cc_types.loss) =
    (match l.kind with
     | `Timeout ->
       s.ssthresh <- Float.max (window () /. 2.) (2. *. mss);
       s.lwnd <- 2. *. mss;
       s.dwnd <- 0.
     | `Dupack ->
       let now = Time.to_secs l.times.now in
       if now > s.recovery_until then begin
         s.recovery_until <- now +. s.srtt;
         s.ssthresh <- Float.max (window () /. 2.) (2. *. mss);
         s.lwnd <- Float.max (2. *. mss) (s.lwnd /. 2.);
         s.dwnd <- s.dwnd /. 2.
       end);
    o.cwnd <- window ()
  in
  Cc_types.make ~name:"compound" ~on_ack ~on_loss o
