let pi = 4.0 *. atan 1.0

let power xs ~sample_rate ~freq =
  let sample_rate = Units.Freq.to_hz sample_rate in
  let n = Array.length xs in
  if n = 0 then invalid_arg "Goertzel.power: empty signal";
  if sample_rate <= 0. then invalid_arg "Goertzel.power: sample_rate <= 0";
  let k = freq /. sample_rate *. float_of_int n in
  let omega = 2.0 *. pi *. k /. float_of_int n in
  let coeff = 2.0 *. cos omega in
  let s_prev = ref 0.0 and s_prev2 = ref 0.0 in
  for i = 0 to n - 1 do
    let s = xs.(i) +. (coeff *. !s_prev) -. !s_prev2 in
    s_prev2 := !s_prev;
    s_prev := s
  done;
  (!s_prev *. !s_prev) +. (!s_prev2 *. !s_prev2)
  -. (coeff *. !s_prev *. !s_prev2)
[@@alloc_free]

let magnitude xs ~sample_rate ~freq = sqrt (power xs ~sample_rate ~freq)

module Bank = struct
  (* A bank of sliding-DFT recurrences that tracks the *windowed, detrended*
     amplitude of a fixed set of DFT bins in O(1) per sample — the streaming
     replacement for the per-tick Plan-FFT in the elasticity detector.

     Let V^w(t) = sum_{i=0}^{n-1} x_{t-n+1+i} e^{-jwi} be the window sum at
     angular step [w] with *relative* phase (oldest sample at phase 0).  On
     pushing x_new and evicting x_old it slides exactly:

       V' = e^{jw} (V - x_old) + x_new e^{-jw(n-1)}

     The analyzer's tapers are the *symmetric* variants (denominator n-1),
     so the textbook 3-bin periodic-Hann convolution does not apply.
     Instead each taper is its exact cosine series
     w_i = sum_m a_m cos(m * alpha * i) with alpha = 2*pi/(n-1), giving

       sum_i x_i w_i e^{-jw_k i}
         = a_0 V^{w_k} + sum_{m>=1} (a_m / 2) (V^{w_k - m*alpha}
                                               + V^{w_k + m*alpha})

     so one tracked bin costs 2*order+1 recurrences (order 0 for
     rectangular, 1 for Hann/Hamming, 2 for Blackman).  Linear/mean
     detrending commutes with the DFT: with sliding sums S = sum x_i and
     T = sum i*x_i the analyzer's least-squares intercept b and slope a
     are recovered in O(1), and the detrended bin is

       X_k = raw_k - b*C_k - a*D_k,   C_k = sum_i w_i e^{-jw_k i},
                                      D_k = sum_i w_i i e^{-jw_k i}

     with C/D precomputed from the very coefficient arrays the FFT path
     multiplies by.  The recurrences accumulate O(eps) rounding per push,
     so every [8n] pushes the bank recomputes all state directly from its
     window copy (a few hundred microseconds amortized over seconds),
     bounding drift far below the QCheck agreement tolerance. *)

  let resync_mult = 8

  (* cosine-series weights of Window.coefficients' symmetric tapers *)
  let series = function
    | Window.Rectangular -> [| 1.0 |]
    | Window.Hann -> [| 0.5; -0.5 |]
    | Window.Hamming -> [| 0.54; -0.46 |]
    | Window.Blackman -> [| 0.42; -0.5; 0.08 |]

  type t = {
    n : int;
    bins : int array; (* tracked DFT bins; amplitudes are read by slot *)
    ncomp : int;
    cpb : int; (* components per bin: 2*order + 1 *)
    wt : float array; (* per-component-offset series weight, length cpb *)
    omega : float array; (* angular step of each component *)
    rot_re : float array; (* e^{j omega}: slide rotation *)
    rot_im : float array;
    inj_re : float array; (* e^{-j omega (n-1)}: new-sample injection *)
    inj_im : float array;
    vre : float array; (* running component sums *)
    vim : float array;
    cre : float array; (* detrend corrections C_k, D_k per slot *)
    cim : float array;
    dre : float array;
    dim : float array;
    win : float array; (* own window copy, for load and resync *)
    mutable head : int;
    mutable count : int;
    mutable until_resync : int;
    detrend : [ `None | `Mean | `Linear ];
    (* sliding detrend sums live in a float array: mutable float fields in
       this mixed record would box on every write *)
    sums : float array;
    (* [0] = S = sum x_i; [1] = T = sum i * x_i; [2], [3] = the trend's
       intercept and slope at the last readout *)
    nf : float; (* immutable float fields: reads never allocate *)
    sx : float; (* sum i = n(n-1)/2 *)
    denom : float; (* least-squares denominator n*sxx - sx^2 *)
  }

  let create ~window:n ~taper ~detrend ~bins () =
    if n <= 0 then invalid_arg "Goertzel.Bank.create: window <= 0";
    Array.iter
      (fun k ->
        if k < 0 || k > n / 2 then
          invalid_arg "Goertzel.Bank.create: bin out of [0, window/2]")
      bins;
    let series = if n < 2 then [| 1.0 |] else series taper in
    let order = Array.length series - 1 in
    let cpb = (2 * order) + 1 in
    let nbins = Array.length bins in
    let ncomp = nbins * cpb in
    let alpha = if n < 2 then 0. else 2. *. pi /. float_of_int (n - 1) in
    let wt = Array.make cpb series.(0) in
    for m = 1 to order do
      wt.((2 * m) - 1) <- series.(m) /. 2.;
      wt.(2 * m) <- series.(m) /. 2.
    done;
    let omega = Array.make (max 1 ncomp) 0. in
    for b = 0 to nbins - 1 do
      let wk = 2. *. pi *. float_of_int bins.(b) /. float_of_int n in
      omega.(b * cpb) <- wk;
      for m = 1 to order do
        let off = float_of_int m *. alpha in
        omega.((b * cpb) + (2 * m) - 1) <- wk -. off;
        omega.((b * cpb) + (2 * m)) <- wk +. off
      done
    done;
    let rot_re = Array.make (max 1 ncomp) 0. in
    let rot_im = Array.make (max 1 ncomp) 0. in
    let inj_re = Array.make (max 1 ncomp) 0. in
    let inj_im = Array.make (max 1 ncomp) 0. in
    for c = 0 to ncomp - 1 do
      rot_re.(c) <- cos omega.(c);
      rot_im.(c) <- sin omega.(c);
      let ph = omega.(c) *. float_of_int (n - 1) in
      inj_re.(c) <- cos ph;
      inj_im.(c) <- -.sin ph
    done;
    (* detrend corrections from the exact coefficient arrays the FFT path
       multiplies by, so the two paths agree to rounding; an undetrended
       bank multiplies them by a zero trend and skips their O(n) trig *)
    let cre = Array.make (max 1 nbins) 0. in
    let cim = Array.make (max 1 nbins) 0. in
    let dre = Array.make (max 1 nbins) 0. in
    let dim = Array.make (max 1 nbins) 0. in
    let corrected = match detrend with `None -> 0 | `Mean | `Linear -> nbins in
    let coeffs = if corrected = 0 then [||] else Window.coefficients taper n in
    for b = 0 to corrected - 1 do
      let wk = 2. *. pi *. float_of_int bins.(b) /. float_of_int n in
      let sr = ref 0. and si = ref 0. and tr = ref 0. and ti = ref 0. in
      for i = 0 to n - 1 do
        let ph = wk *. float_of_int i in
        let c0 = cos ph and s0 = sin ph in
        let w = coeffs.(i) in
        sr := !sr +. (w *. c0);
        si := !si -. (w *. s0);
        tr := !tr +. (w *. float_of_int i *. c0);
        ti := !ti -. (w *. float_of_int i *. s0)
      done;
      cre.(b) <- !sr;
      cim.(b) <- !si;
      dre.(b) <- !tr;
      dim.(b) <- !ti
    done;
    let nf = float_of_int n in
    let sx = nf *. (nf -. 1.) /. 2. in
    let sxx = nf *. (nf -. 1.) *. ((2. *. nf) -. 1.) /. 6. in
    {
      n;
      bins = Array.copy bins;
      ncomp;
      cpb;
      wt;
      omega;
      rot_re;
      rot_im;
      inj_re;
      inj_im;
      vre = Array.make (max 1 ncomp) 0.;
      vim = Array.make (max 1 ncomp) 0.;
      cre;
      cim;
      dre;
      dim;
      win = Array.make n 0.;
      head = 0;
      count = 0;
      until_resync = resync_mult * n;
      detrend;
      sums = Array.make 4 0.;
      nf;
      sx;
      denom = (nf *. sxx) -. (sx *. sx);
    }

  let nbins t = Array.length t.bins

  let bin t i = t.bins.(i)

  let filled t = t.count = t.n

  (* Recompute every component and the detrend sums directly from the window
     copy.  Chronological sample i is win.((head + i) mod n) — before fill
     that yields the implicit leading zeros, after fill the true window.
     The sum loop mirrors the FFT path's accumulation order so b and a match
     it to rounding. *)
  let resync t =
    let n = t.n in
    let s = ref 0. and ti = ref 0. in
    for i = 0 to n - 1 do
      let x = t.win.((t.head + i) mod n) in
      s := !s +. x;
      ti := !ti +. (float_of_int i *. x)
    done;
    t.sums.(0) <- !s;
    t.sums.(1) <- !ti;
    for c = 0 to t.ncomp - 1 do
      let w = t.omega.(c) in
      let sr = ref 0. and si = ref 0. in
      for i = 0 to n - 1 do
        let x = t.win.((t.head + i) mod n) in
        let ph = w *. float_of_int i in
        sr := !sr +. (x *. cos ph);
        si := !si -. (x *. sin ph)
      done;
      t.vre.(c) <- !sr;
      t.vim.(c) <- !si
    done;
    t.until_resync <- resync_mult * n
  [@@alloc_free]

  let push t x =
    let n = t.n in
    let x_old = t.win.(t.head) in
    t.win.(t.head) <- x;
    t.head <- (t.head + 1) mod n;
    if t.count < n then t.count <- t.count + 1;
    (* T before S: the T recurrence needs the pre-update S *)
    let s = t.sums.(0) in
    t.sums.(1) <-
      t.sums.(1) -. s +. x_old +. (float_of_int (n - 1) *. x);
    t.sums.(0) <- s -. x_old +. x;
    for c = 0 to t.ncomp - 1 do
      let vr = t.vre.(c) -. x_old and vi = t.vim.(c) in
      t.vre.(c) <-
        (t.rot_re.(c) *. vr) -. (t.rot_im.(c) *. vi) +. (x *. t.inj_re.(c));
      t.vim.(c) <-
        (t.rot_re.(c) *. vi) +. (t.rot_im.(c) *. vr) +. (x *. t.inj_im.(c))
    done;
    t.until_resync <- t.until_resync - 1;
    if t.until_resync <= 0 then resync t
  [@@alloc_free]

  let load t xs =
    if Array.length xs <> t.n then
      invalid_arg "Goertzel.Bank.load: length <> window";
    Array.blit xs 0 t.win 0 t.n;
    t.head <- 0;
    t.count <- t.n;
    resync t

  (* The analyzer's trend intercept b and slope a from the sliding sums,
     into sums.(2) and sums.(3), so a readout fits the trend once however
     many slots it reads. *)
  let fit_trend t =
    let s = t.sums.(0) in
    match t.detrend with
    | `None ->
      t.sums.(2) <- 0.;
      t.sums.(3) <- 0.
    | `Mean ->
      t.sums.(2) <- s /. t.nf;
      t.sums.(3) <- 0.
    | `Linear ->
      if t.n < 2 then begin
        t.sums.(2) <- s /. t.nf;
        t.sums.(3) <- 0.
      end
      else begin
        let a = ((t.nf *. t.sums.(1)) -. (t.sx *. s)) /. t.denom in
        t.sums.(3) <- a;
        t.sums.(2) <- (s -. (a *. t.sx)) /. t.nf
      end
  [@@alloc_free]

  (* |X_k| of [slot] under the trend [fit_trend] left in sums.(2..3).
     Inlined into its callers: a float returned from a call is boxed. *)
  let[@inline] detrended t slot =
    let base = slot * t.cpb in
    let rr = ref 0. and ii = ref 0. in
    for c = 0 to t.cpb - 1 do
      rr := !rr +. (t.wt.(c) *. t.vre.(base + c));
      ii := !ii +. (t.wt.(c) *. t.vim.(base + c))
    done;
    let b = t.sums.(2) and a = t.sums.(3) in
    Float.hypot
      (!rr -. (b *. t.cre.(slot)) -. (a *. t.dre.(slot)))
      (!ii -. (b *. t.cim.(slot)) -. (a *. t.dim.(slot)))

  let[@inline] max_detrended t ~first ~last =
    let best = ref 0. in
    for slot = first to last do
      let a = detrended t slot in
      if a > !best then best := a
    done;
    !best

  let amplitude t slot =
    fit_trend t;
    detrended t slot
  [@@alloc_free]

  let band_max t ~first ~last =
    fit_trend t;
    max_detrended t ~first ~last
  [@@alloc_free]

  let peak_ratio t ~slot ~first ~last =
    fit_trend t;
    detrended t slot /. max_detrended t ~first ~last
  [@@alloc_free]
end
