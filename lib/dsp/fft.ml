let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* The largest representable power of two is max_int/2 + 1 (= 2^61 on 64-bit);
   doubling past it overflows and the search would never terminate. *)
let max_power_of_two = (max_int / 2) + 1

let next_power_of_two n =
  if n > max_power_of_two then
    invalid_arg "Fft.next_power_of_two: no representable power of two >= n";
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let pi = 4.0 *. atan 1.0

(* --- plans ----------------------------------------------------------------- *)

module Plan = struct
  (* Precomputed tables for one power-of-two size: the bit-reversal
     permutation and every stage's twiddle factors (forward convention;
     the inverse conjugates at use).  Stage [len = 2^s] stores its
     [half = len/2] twiddles at offset [half - 1], so the flat arrays hold
     exactly [n - 1] entries. *)
  type pow2 = {
    p_n : int;
    bitrev : int array;
    tw_re : float array;
    tw_im : float array;
  }

  type bluestein_tables = {
    m_plan : pow2;              (* inner power-of-two plan, size m >= 2n-1 *)
    chirp_re : float array;     (* forward chirp exp(-i·pi·q/n), length n *)
    chirp_im : float array;
    filt_fwd : Cbuf.t;          (* FFT of the chirp filter, forward variant *)
    filt_inv : Cbuf.t;          (* same for the inverse transform *)
    scratch : Cbuf.t;           (* length m, reused by every execute *)
  }

  type kind =
    | Pow2 of pow2
    | Bluestein of bluestein_tables

  type t = {
    n : int;
    kind : kind;
  }

  let make_pow2 n =
    let bits =
      let b = ref 0 and v = ref n in
      while !v > 1 do
        incr b;
        v := !v lsr 1
      done;
      !b
    in
    let bitrev =
      Array.init n (fun i ->
          let j = ref 0 and x = ref i in
          for _ = 1 to bits do
            j := (!j lsl 1) lor (!x land 1);
            x := !x lsr 1
          done;
          !j)
    in
    let tw_re = Array.make (max 0 (n - 1)) 1.0 in
    let tw_im = Array.make (max 0 (n - 1)) 0.0 in
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let off = half - 1 in
      for k = 0 to half - 1 do
        let theta = -2.0 *. pi *. float_of_int k /. float_of_int !len in
        tw_re.(off + k) <- cos theta;
        tw_im.(off + k) <- sin theta
      done;
      len := !len * 2
    done;
    { p_n = n; bitrev; tw_re; tw_im }

  (* In-place table-driven radix-2: no trigonometry, no allocation. *)
  let exec_pow2 p ~inverse (b : Cbuf.t) =
    let n = p.p_n in
    let re = b.Cbuf.re and im = b.Cbuf.im in
    let bitrev = p.bitrev in
    for i = 0 to n - 1 do
      let j = bitrev.(i) in
      if i < j then begin
        let tr = re.(i) and ti = im.(i) in
        re.(i) <- re.(j);
        im.(i) <- im.(j);
        re.(j) <- tr;
        im.(j) <- ti
      end
    done;
    let sign = if inverse then -1.0 else 1.0 in
    let tw_re = p.tw_re and tw_im = p.tw_im in
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let off = half - 1 in
      let i = ref 0 in
      while !i < n do
        for k = 0 to half - 1 do
          let w_re = tw_re.(off + k) in
          let w_im = sign *. tw_im.(off + k) in
          let k1 = !i + k in
          let k2 = k1 + half in
          let tr = (re.(k2) *. w_re) -. (im.(k2) *. w_im) in
          let ti = (re.(k2) *. w_im) +. (im.(k2) *. w_re) in
          re.(k2) <- re.(k1) -. tr;
          im.(k2) <- im.(k1) -. ti;
          re.(k1) <- re.(k1) +. tr;
          im.(k1) <- im.(k1) +. ti
        done;
        i := !i + !len
      done;
      len := !len * 2
    done;
    if inverse then Cbuf.scale b (1.0 /. float_of_int n)
  [@@alloc_free]

  let make_bluestein n =
    let m = next_power_of_two ((2 * n) - 1) in
    let m_plan = make_pow2 m in
    let chirp_re = Array.make n 0. and chirp_im = Array.make n 0. in
    for i = 0 to n - 1 do
      (* i² mod 2n avoids precision loss for large i *)
      let q = float_of_int (i * i mod (2 * n)) in
      let theta = -.pi *. q /. float_of_int n in
      chirp_re.(i) <- cos theta;
      chirp_im.(i) <- sin theta
    done;
    (* Chirp filter spectra.  The forward transform convolves with
       conj(chirp); the inverse transform's chirp is conj(chirp), so its
       filter is the chirp itself. *)
    let filter im_sign =
      let c = Cbuf.create m in
      Cbuf.set c 0 chirp_re.(0) (im_sign *. chirp_im.(0));
      for i = 1 to n - 1 do
        Cbuf.set c i chirp_re.(i) (im_sign *. chirp_im.(i));
        Cbuf.set c (m - i) chirp_re.(i) (im_sign *. chirp_im.(i))
      done;
      exec_pow2 m_plan ~inverse:false c;
      c
    in
    { m_plan; chirp_re; chirp_im; filt_fwd = filter (-1.); filt_inv = filter 1.;
      scratch = Cbuf.create m }

  let create n =
    if n <= 0 then invalid_arg "Fft.Plan.create: size must be positive";
    let kind =
      if is_power_of_two n then Pow2 (make_pow2 n) else Bluestein (make_bluestein n)
    in
    { n; kind }

  let size t = t.n

  let exec_bluestein bt ~inverse n (b : Cbuf.t) =
    (* the inverse chirp is the conjugate of the stored forward chirp *)
    let csign = if inverse then -1.0 else 1.0 in
    let chirp_re = bt.chirp_re and chirp_im = bt.chirp_im in
    let a = bt.scratch in
    let m = Cbuf.length a in
    let are = a.Cbuf.re and aim = a.Cbuf.im in
    let bre = b.Cbuf.re and bim = b.Cbuf.im in
    Array.fill are 0 m 0.;
    Array.fill aim 0 m 0.;
    for i = 0 to n - 1 do
      let xr = bre.(i) and xi = bim.(i) in
      let cr = chirp_re.(i) and ci = csign *. chirp_im.(i) in
      are.(i) <- (xr *. cr) -. (xi *. ci);
      aim.(i) <- (xr *. ci) +. (xi *. cr)
    done;
    exec_pow2 bt.m_plan ~inverse:false a;
    let filt = if inverse then bt.filt_inv else bt.filt_fwd in
    let fre = filt.Cbuf.re and fim = filt.Cbuf.im in
    for i = 0 to m - 1 do
      let ar = are.(i) and ai = aim.(i) in
      are.(i) <- (ar *. fre.(i)) -. (ai *. fim.(i));
      aim.(i) <- (ar *. fim.(i)) +. (ai *. fre.(i))
    done;
    exec_pow2 bt.m_plan ~inverse:true a;
    for i = 0 to n - 1 do
      let ar = are.(i) and ai = aim.(i) in
      let cr = chirp_re.(i) and ci = csign *. chirp_im.(i) in
      bre.(i) <- (ar *. cr) -. (ai *. ci);
      bim.(i) <- (ar *. ci) +. (ai *. cr)
    done;
    if inverse then Cbuf.scale b (1.0 /. float_of_int n)
  [@@alloc_free]

  let execute ?(inverse = false) t (b : Cbuf.t) =
    if Cbuf.length b <> t.n then
      invalid_arg "Fft.Plan.execute: buffer length does not match plan size";
    Nimbus_trace.Span.enter Fft;
    (match t.kind with
    | Pow2 p -> exec_pow2 p ~inverse b
    | Bluestein bt -> exec_bluestein bt ~inverse t.n b);
    Nimbus_trace.Span.leave Fft
  [@@alloc_free]
end

let dft ?(inverse = false) (b : Cbuf.t) =
  let n = Cbuf.length b in
  let sign = if inverse then 1.0 else -1.0 in
  let out = Cbuf.create n in
  for k = 0 to n - 1 do
    let sum_re = ref 0.0 and sum_im = ref 0.0 in
    for i = 0 to n - 1 do
      let theta = sign *. 2.0 *. pi *. float_of_int (k * i) /. float_of_int n in
      let wr = cos theta and wi = sin theta in
      sum_re := !sum_re +. ((b.Cbuf.re.(i) *. wr) -. (b.Cbuf.im.(i) *. wi));
      sum_im := !sum_im +. ((b.Cbuf.re.(i) *. wi) +. (b.Cbuf.im.(i) *. wr))
    done;
    Cbuf.set out k !sum_re !sum_im
  done;
  if inverse then Cbuf.scale out (1.0 /. float_of_int n);
  out

let real_amplitudes xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let spec = Cbuf.of_real xs in
    Plan.execute (Plan.create n) spec;
    Array.init ((n / 2) + 1) (fun k -> Cbuf.magnitude spec k)
  end
