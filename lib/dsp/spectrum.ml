type t = {
  amplitudes : float array;
  sample_rate : float;
  n : int;
}

type detrend =
  [ `None
  | `Mean
  | `Linear
  ]

type state = {
  st_n : int;
  st_detrend : detrend;
  coeffs : float array;
  buf : Cbuf.t;
  plan : Fft.Plan.t;
  result : t;
}

let create_state ?(window = Window.Rectangular) ?(detrend = `Mean) ~n
    ~sample_rate () =
  let rate = Units.Freq.to_hz sample_rate in
  if n <= 0 then invalid_arg "Spectrum.create_state: n <= 0";
  if rate <= 0. then invalid_arg "Spectrum.create_state: sample_rate <= 0";
  {
    st_n = n;
    st_detrend = detrend;
    coeffs = Window.coefficients window n;
    buf = Cbuf.create n;
    plan = Fft.Plan.create n;
    result = { amplitudes = Array.make ((n / 2) + 1) 0.; sample_rate = rate; n };
  }

let state_size st = st.st_n

let analyze_into st xs =
  let n = st.st_n in
  if Array.length xs <> n then
    invalid_arg "Spectrum.analyze_into: signal length <> state size";
  Nimbus_trace.Span.enter Spectrum;
  (* The detrended sample is xs.(i) - intercept - slope*i; computing the two
     coefficients first lets the fill loop below run without a scratch copy. *)
  let intercept = ref 0. and slope = ref 0. in
  (match st.st_detrend with
  | `None -> ()
  | `Mean ->
      let s = ref 0. in
      for i = 0 to n - 1 do
        s := !s +. xs.(i)
      done;
      intercept := !s /. float_of_int n
  | `Linear ->
      if n < 2 then begin
        let s = ref 0. in
        for i = 0 to n - 1 do
          s := !s +. xs.(i)
        done;
        intercept := !s /. float_of_int n
      end
      else begin
        (* least-squares line over index i = 0 .. n-1 *)
        let nf = float_of_int n in
        let sx = nf *. (nf -. 1.) /. 2. in
        let sxx = nf *. (nf -. 1.) *. ((2. *. nf) -. 1.) /. 6. in
        let sy = ref 0. and sxy = ref 0. in
        for i = 0 to n - 1 do
          let y = xs.(i) in
          sy := !sy +. y;
          sxy := !sxy +. (float_of_int i *. y)
        done;
        let denom = (nf *. sxx) -. (sx *. sx) in
        slope := ((nf *. !sxy) -. (sx *. !sy)) /. denom;
        intercept := (!sy -. (!slope *. sx)) /. nf
      end);
  let b = !intercept and a = !slope in
  let re = st.buf.Cbuf.re and im = st.buf.Cbuf.im in
  let coeffs = st.coeffs in
  for i = 0 to n - 1 do
    re.(i) <- (xs.(i) -. b -. (a *. float_of_int i)) *. coeffs.(i);
    im.(i) <- 0.
  done;
  Fft.Plan.execute st.plan st.buf;
  let amps = st.result.amplitudes in
  for k = 0 to n / 2 do
    amps.(k) <- Float.hypot re.(k) im.(k)
  done;
  Nimbus_trace.Span.leave Spectrum;
  st.result
[@@alloc_free]

let bin_width s = s.sample_rate /. float_of_int s.n

let bin_of_freq s f =
  let k = int_of_float (Float.round (f /. bin_width s)) in
  let top = Array.length s.amplitudes - 1 in
  if k < 0 then 0 else if k > top then top else k

let freq_of_bin s k = float_of_int k *. bin_width s

let amplitude_at s f = s.amplitudes.(bin_of_freq s f)

let band_max s ~lo ~hi =
  let w = bin_width s in
  let top = Array.length s.amplitudes - 1 in
  let best = ref 0.0 in
  for k = 0 to top do
    let f = float_of_int k *. w in
    if f > lo && f < hi && s.amplitudes.(k) > !best then best := s.amplitudes.(k)
  done;
  !best

let dominant s ~above =
  let w = bin_width s in
  let top = Array.length s.amplitudes - 1 in
  let best_k = ref (-1) and best = ref neg_infinity in
  for k = 0 to top do
    let f = float_of_int k *. w in
    if f > above && s.amplitudes.(k) > !best then begin
      best := s.amplitudes.(k);
      best_k := k
    end
  done;
  if !best_k < 0 then (0., 0.) else (freq_of_bin s !best_k, !best)
