(* Unit and property tests for the DSP substrate. *)

open Nimbus_dsp

let pi = 4.0 *. atan 1.0

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_rel ?(tol = 1e-6) msg expected actual =
  let denom = Float.max 1e-12 (Float.abs expected) in
  if Float.abs (expected -. actual) /. denom > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let sinusoid ~n ~sample_rate ~freq ~amp ~phase =
  Array.init n (fun i ->
      amp *. sin ((2. *. pi *. freq *. float_of_int i /. sample_rate) +. phase))

(* transform [b] in place through a fresh plan: the radix-2 kernel on
   power-of-two lengths, Bluestein on every other *)
let fft_in_place b = Fft.Plan.execute (Fft.Plan.create (Cbuf.length b)) b

let fft b =
  let c = Cbuf.copy b in
  fft_in_place c;
  c

let max_diff a b =
  let d = ref 0. in
  for i = 0 to Cbuf.length a - 1 do
    let ar, ai = Cbuf.get a i and br, bi = Cbuf.get b i in
    d := Float.max !d (Float.max (Float.abs (ar -. br)) (Float.abs (ai -. bi)))
  done;
  !d

(* --- cbuf ---------------------------------------------------------------- *)

let test_cbuf_basics () =
  let b = Cbuf.create 4 in
  Alcotest.(check int) "length" 4 (Cbuf.length b);
  Cbuf.set b 2 3. (-4.);
  check_close "magnitude" 5. (Cbuf.magnitude b 2);
  Cbuf.mul b 2 0. 1.;
  let re, im = Cbuf.get b 2 in
  check_close "mul rotates re" 4. re;
  check_close "mul rotates im" 3. im;
  Cbuf.scale b 2.;
  check_close "scale" 8. (fst (Cbuf.get b 2))

let test_cbuf_of_real () =
  let b = Cbuf.of_real [| 1.; 2.; 3. |] in
  Alcotest.(check int) "length" 3 (Cbuf.length b);
  check_close "re" 2. (fst (Cbuf.get b 1));
  check_close "im" 0. (snd (Cbuf.get b 1))

let test_cbuf_blit () =
  let a = Cbuf.of_real [| 1.; 2.; 3.; 4. |] in
  let b = Cbuf.create 4 in
  Cbuf.blit ~src:a ~src_pos:1 ~dst:b ~dst_pos:0 ~len:2;
  check_close "blit" 2. (fst (Cbuf.get b 0));
  check_close "blit" 3. (fst (Cbuf.get b 1))

(* --- fft ----------------------------------------------------------------- *)

let test_power_of_two () =
  Alcotest.(check bool) "1" true (Fft.is_power_of_two 1);
  Alcotest.(check bool) "512" true (Fft.is_power_of_two 512);
  Alcotest.(check bool) "500" false (Fft.is_power_of_two 500);
  Alcotest.(check bool) "0" false (Fft.is_power_of_two 0);
  Alcotest.(check int) "next 500" 512 (Fft.next_power_of_two 500);
  Alcotest.(check int) "next 512" 512 (Fft.next_power_of_two 512);
  Alcotest.(check int) "next 1" 1 (Fft.next_power_of_two 1)

let test_next_power_of_two_bounds () =
  (* non-positive inputs round up to 2^0 *)
  Alcotest.(check int) "next 0" 1 (Fft.next_power_of_two 0);
  Alcotest.(check int) "next -17" 1 (Fft.next_power_of_two (-17));
  (* the largest representable power of two is its own ceiling... *)
  Alcotest.(check int) "next max" Fft.max_power_of_two
    (Fft.next_power_of_two Fft.max_power_of_two);
  Alcotest.(check int) "next max-1" Fft.max_power_of_two
    (Fft.next_power_of_two (Fft.max_power_of_two - 1));
  (* ...and anything beyond it has none *)
  let overflow = Invalid_argument
      "Fft.next_power_of_two: no representable power of two >= n"
  in
  Alcotest.check_raises "next max+1" overflow (fun () ->
      ignore (Fft.next_power_of_two (Fft.max_power_of_two + 1)));
  Alcotest.check_raises "next max_int" overflow (fun () ->
      ignore (Fft.next_power_of_two max_int))

let test_fft_impulse () =
  (* delta function -> flat spectrum of magnitude 1 *)
  let b = Cbuf.create 16 in
  Cbuf.set b 0 1. 0.;
  fft_in_place b;
  for k = 0 to 15 do
    check_close "impulse bin" 1. (Cbuf.magnitude b k)
  done

let test_fft_dc () =
  let b = Cbuf.of_real (Array.make 8 3.) in
  fft_in_place b;
  check_close "dc bin" 24. (Cbuf.magnitude b 0);
  for k = 1 to 7 do
    check_close ~eps:1e-9 "non-dc bin" 0. (Cbuf.magnitude b k)
  done

let test_fft_sinusoid_bin () =
  (* exact-bin sinusoid of amplitude a -> |X(k)| = n*a/2 *)
  let n = 64 in
  let xs = sinusoid ~n ~sample_rate:64. ~freq:8. ~amp:2. ~phase:0.3 in
  let b = Cbuf.of_real xs in
  fft_in_place b;
  check_rel ~tol:1e-9 "peak bin" (float_of_int n *. 2. /. 2.) (Cbuf.magnitude b 8);
  check_close ~eps:1e-8 "other bin" 0. (Cbuf.magnitude b 9)

let test_radix2_matches_dft () =
  let rng = Nimbus_sim.Rng.create 99 in
  let b = Cbuf.create 64 in
  for i = 0 to 63 do
    Cbuf.set b i (Nimbus_sim.Rng.uniform rng) (Nimbus_sim.Rng.uniform rng)
  done;
  if max_diff (Fft.dft b) (fft b) > 1e-8 then
    Alcotest.fail "radix2 deviates from DFT"

let test_bluestein_matches_dft () =
  (* lengths that are not powers of two take the plan's Bluestein kernel *)
  List.iter
    (fun n ->
      let rng = Nimbus_sim.Rng.create (1000 + n) in
      let b = Cbuf.create n in
      for i = 0 to n - 1 do
        Cbuf.set b i (Nimbus_sim.Rng.uniform rng) (Nimbus_sim.Rng.uniform rng)
      done;
      if max_diff (Fft.dft b) (fft b) > 1e-7 then
        Alcotest.failf "bluestein deviates from DFT at n=%d" n)
    [ 3; 5; 7; 12; 100; 500 ]

let test_plan_matches_dft () =
  List.iter
    (fun n ->
      let rng = Nimbus_sim.Rng.create (3000 + n) in
      let b = Cbuf.create n in
      for i = 0 to n - 1 do
        Cbuf.set b i (Nimbus_sim.Rng.uniform rng) (Nimbus_sim.Rng.uniform rng)
      done;
      let oracle = Fft.dft b in
      let plan = Fft.Plan.create n in
      Alcotest.(check int) "plan size" n (Fft.Plan.size plan);
      let fwd = Cbuf.copy b in
      Fft.Plan.execute plan fwd;
      if max_diff oracle fwd > 1e-7 then
        Alcotest.failf "plan deviates from DFT at n=%d" n;
      (* executing the same plan again must give the same answer: the plan's
         scratch state carries nothing across calls *)
      let again = Cbuf.copy b in
      Fft.Plan.execute plan again;
      if max_diff fwd again > 0. then
        Alcotest.failf "plan not reusable at n=%d" n;
      (* the inverse through the forward plan: x = conj (FFT (conj X)) / n *)
      let conj c = Array.iteri (fun i v -> c.Cbuf.im.(i) <- -.v) c.Cbuf.im in
      conj again;
      Fft.Plan.execute plan again;
      conj again;
      Cbuf.scale again (1. /. float_of_int n);
      if max_diff b again > 1e-8 then
        Alcotest.failf "plan roundtrip fails at n=%d" n)
    [ 1; 2; 3; 5; 7; 12; 100; 500; 512 ]

let test_plan_validation () =
  Alcotest.check_raises "create 0"
    (Invalid_argument "Fft.Plan.create: size must be positive") (fun () ->
      ignore (Fft.Plan.create 0));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Fft.Plan.execute: buffer length does not match plan size")
    (fun () -> Fft.Plan.execute (Fft.Plan.create 8) (Cbuf.create 9))

(* the core kernel-agreement property of the plan layer: the plan agrees
   with the dft oracle on any length, through its Bluestein kernel off the
   powers of two and its radix-2 kernel on them *)
let prop_kernels_agree =
  QCheck.Test.make ~count:60 ~name:"fft: dft = bluestein = plan (any n)"
    QCheck.(pair (int_range 1 128) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Nimbus_sim.Rng.create seed in
      let b = Cbuf.create n in
      for i = 0 to n - 1 do
        Cbuf.set b i
          (Nimbus_sim.Rng.range rng ~lo:(-1.) ~hi:1.)
          (Nimbus_sim.Rng.range rng ~lo:(-1.) ~hi:1.)
      done;
      max_diff (Fft.dft b) (fft b) < 1e-9 *. float_of_int n)

let prop_kernels_agree_pow2 =
  QCheck.Test.make ~count:30 ~name:"fft: dft = radix2 = plan (power of two)"
    QCheck.(pair (int_range 0 7) (int_range 0 10_000))
    (fun (log2, seed) ->
      let n = 1 lsl log2 in
      let rng = Nimbus_sim.Rng.create seed in
      let b = Cbuf.create n in
      for i = 0 to n - 1 do
        Cbuf.set b i
          (Nimbus_sim.Rng.range rng ~lo:(-1.) ~hi:1.)
          (Nimbus_sim.Rng.range rng ~lo:(-1.) ~hi:1.)
      done;
      max_diff (Fft.dft b) (fft b) < 1e-9 *. float_of_int (max n 1))

let test_parseval () =
  let n = 128 in
  let rng = Nimbus_sim.Rng.create 7 in
  let xs = Array.init n (fun _ -> Nimbus_sim.Rng.range rng ~lo:(-1.) ~hi:1.) in
  let time_energy = Array.fold_left (fun a x -> a +. (x *. x)) 0. xs in
  let spec = fft (Cbuf.of_real xs) in
  let freq_energy = ref 0. in
  for k = 0 to n - 1 do
    let m = Cbuf.magnitude spec k in
    freq_energy := !freq_energy +. (m *. m)
  done;
  check_rel ~tol:1e-9 "parseval" time_energy (!freq_energy /. float_of_int n)

let prop_fft_linearity =
  QCheck.Test.make ~count:50 ~name:"fft: transform is linear"
    QCheck.(pair (list_of_size (Gen.return 32) (float_bound_exclusive 10.)) (list_of_size (Gen.return 32) (float_bound_exclusive 10.)))
    (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      let sum = Array.map2 ( +. ) a b in
      let fa = fft (Cbuf.of_real a) in
      let fb = fft (Cbuf.of_real b) in
      let fsum = fft (Cbuf.of_real sum) in
      let ok = ref true in
      for k = 0 to 31 do
        let er = fa.Cbuf.re.(k) +. fb.Cbuf.re.(k) -. fsum.Cbuf.re.(k) in
        let ei = fa.Cbuf.im.(k) +. fb.Cbuf.im.(k) -. fsum.Cbuf.im.(k) in
        if Float.abs er > 1e-6 || Float.abs ei > 1e-6 then ok := false
      done;
      !ok)

(* --- goertzel ------------------------------------------------------------ *)

let test_goertzel_matches_fft () =
  let n = 500 in
  let xs = sinusoid ~n ~sample_rate:100. ~freq:5. ~amp:1.5 ~phase:0.7 in
  let g = Goertzel.magnitude xs ~sample_rate:(Units.Freq.hz 100.) ~freq:5. in
  let s =
    Spectrum.analyze ~detrend:`None xs ~sample_rate:(Units.Freq.hz 100.)
  in
  (* bin 25 = 5 Hz at 100 Hz / 500 samples *)
  check_rel ~tol:1e-6 "goertzel vs fft" s.Spectrum.amplitudes.(25) g

let test_goertzel_rejects_other_freq () =
  let xs = sinusoid ~n:500 ~sample_rate:100. ~freq:5. ~amp:1. ~phase:0. in
  let off = Goertzel.magnitude xs ~sample_rate:(Units.Freq.hz 100.) ~freq:17. in
  let on = Goertzel.magnitude xs ~sample_rate:(Units.Freq.hz 100.) ~freq:5. in
  if off > on /. 100. then Alcotest.fail "goertzel leaks across bins"

(* --- goertzel bank -------------------------------------------------------- *)

let bank_tapers = [| Window.Rectangular; Window.Hann |]

let bank_detrends : [ `None | `Linear ] array = [| `None; `Linear |]

(* Feed all of [xs] through a bank tracking every bin of a length-[n] DFT,
   then compare each amplitude with the one-shot analyzer over the final
   window — the agreement contract behind the streaming η path. *)
let bank_matches_spectrum ~n ~taper ~detrend xs =
  let total = Array.length xs in
  let bins = Array.init ((n / 2) + 1) (fun k -> k) in
  let bank = Goertzel.Bank.create ~window:n ~taper ~detrend ~bins () in
  Array.iter (fun x -> Goertzel.Bank.push bank x) xs;
  let s =
    Spectrum.analyze ~window:taper ~detrend
      (Array.sub xs (total - n) n)
      ~sample_rate:(Units.Freq.hz 100.)
  in
  let scale = ref 1. in
  Array.iter (fun x -> if Float.abs x > !scale then scale := Float.abs x) xs;
  let tol = 1e-9 *. float_of_int n *. !scale in
  let ok = ref true in
  for k = 0 to n / 2 do
    let expect = Spectrum.amplitude_at s (Spectrum.freq_of_bin s k) in
    let got = Goertzel.Bank.amplitude bank k in
    if Float.abs (expect -. got) > tol then ok := false
  done;
  !ok

let prop_bank_matches_spectrum =
  QCheck.Test.make ~count:48
    ~name:"goertzel bank: amplitudes = spectrum across tapers/detrends"
    QCheck.(
      quad (int_range 16 80) (int_range 0 100_000) (int_range 0 1)
        (int_range 0 1))
    (fun (n, seed, ti, di) ->
      let rng = Nimbus_sim.Rng.create seed in
      (* the longest draws push past 8n and cross the periodic resync *)
      let total = n + Nimbus_sim.Rng.int rng (9 * n) in
      let xs =
        Array.init total (fun i ->
            let t = float_of_int i in
            (0.05 *. t) +. (3. *. sin (0.37 *. t))
            +. Nimbus_sim.Rng.range rng ~lo:(-1.) ~hi:1.)
      in
      bank_matches_spectrum ~n ~taper:bank_tapers.(ti)
        ~detrend:bank_detrends.(di) xs)

let test_bank_load_matches_push () =
  let n = 64 in
  let xs =
    Array.init n (fun i ->
        sin (0.3 *. float_of_int i) +. (0.01 *. float_of_int i))
  in
  let bins = [| 3; 7; 8 |] in
  let make () =
    Goertzel.Bank.create ~window:n ~taper:Window.Hann ~detrend:`Linear ~bins ()
  in
  let a = make () and b = make () in
  Goertzel.Bank.load a xs;
  Array.iter (fun x -> Goertzel.Bank.push b x) xs;
  Alcotest.(check bool) "both filled" true
    (Goertzel.Bank.filled a && Goertzel.Bank.filled b);
  for slot = 0 to 2 do
    Alcotest.(check int) "tracked bin" bins.(slot) (Goertzel.Bank.bin a slot);
    check_rel ~tol:1e-9 "load = push"
      (Goertzel.Bank.amplitude a slot)
      (Goertzel.Bank.amplitude b slot)
  done

let test_bank_resync_drift () =
  (* 20 windows of pushes cross the 8n resync twice; the recurrences must
     not have drifted away from the FFT path *)
  let n = 50 in
  let xs =
    Array.init (20 * n) (fun i ->
        let t = float_of_int i in
        (2. *. sin (0.63 *. t)) +. (0.02 *. t))
  in
  Alcotest.(check bool) "agrees after resyncs" true
    (bank_matches_spectrum ~n ~taper:Window.Hann ~detrend:`Linear xs)

let test_bank_validation () =
  let raises name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  raises "bin beyond n/2" (fun () ->
      Goertzel.Bank.create ~window:8 ~taper:Window.Hann ~detrend:`Linear
        ~bins:[| 5 |] ());
  raises "negative bin" (fun () ->
      Goertzel.Bank.create ~window:8 ~taper:Window.Hann ~detrend:`Linear
        ~bins:[| -1 |] ());
  raises "load length" (fun () ->
      let b =
        Goertzel.Bank.create ~window:8 ~taper:Window.Hann ~detrend:`Linear
          ~bins:[| 1 |] ()
      in
      Goertzel.Bank.load b (Array.make 7 0.))

let test_goertzel_sliding () =
  (* the Nimbus keep-alive probe: a rectangular, undetrended bank over a
     100-sample window at 100 Hz, where 2, 5 and 6 Hz are exact bins, must
     read what Goertzel reads over the same last 100 samples *)
  let s =
    Goertzel.Bank.create ~window:100 ~taper:Window.Rectangular ~detrend:`None
      ~bins:[| 5; 6; 2 |] ()
  in
  Alcotest.(check bool) "not filled" false (Goertzel.Bank.filled s);
  let rng = Nimbus_sim.Rng.create 8 in
  let xs =
    Array.init 1000 (fun i ->
        let t = float_of_int i /. 100. in
        3e7 +. (6e6 *. sin (2. *. pi *. 5. *. t))
        +. (1e6 *. Nimbus_sim.Rng.range rng ~lo:(-1.) ~hi:1.))
  in
  Array.iteri
    (fun i x ->
      Goertzel.Bank.push s x;
      (* sample the agreement before, at and past the 8n-push resync *)
      if i >= 99 && i mod 50 = 49 then begin
        let last = Array.sub xs (i - 99) 100 in
        List.iteri
          (fun slot freq ->
            check_rel ~tol:1e-9
              (Printf.sprintf "%g Hz after %d pushes" freq (i + 1))
              (Goertzel.magnitude last ~sample_rate:(Units.Freq.hz 100.) ~freq)
              (Goertzel.Bank.amplitude s slot))
          [ 5.; 6.; 2. ]
      end)
    xs;
  Alcotest.(check bool) "filled" true (Goertzel.Bank.filled s);
  (* a pure exact-bin tone of amplitude 1 reads n/2 *)
  let tone =
    Goertzel.Bank.create ~window:100 ~taper:Window.Rectangular ~detrend:`None
      ~bins:[| 5 |] ()
  in
  for i = 0 to 199 do
    Goertzel.Bank.push tone (sin (2. *. pi *. 5. *. float_of_int i /. 100.))
  done;
  check_rel ~tol:1e-6 "sliding magnitude" 50. (Goertzel.Bank.amplitude tone 0)

let test_bank_band_max () =
  (* one band readout is bit-identical to the per-slot maximum it replaces *)
  let n = 500 in
  let bins = Array.init 40 (fun i -> 10 + i) in
  let bank =
    Goertzel.Bank.create ~window:n ~taper:Window.Hann ~detrend:`Linear ~bins ()
  in
  let rng = Nimbus_sim.Rng.create 5 in
  for i = 0 to 700 do
    Goertzel.Bank.push bank
      ((0.01 *. float_of_int i) +. sin (0.4 *. float_of_int i)
      +. Nimbus_sim.Rng.range rng ~lo:(-1.) ~hi:1.)
  done;
  List.iter
    (fun (first, last) ->
      let expect = ref 0. in
      for slot = first to last do
        let a = Goertzel.Bank.amplitude bank slot in
        if a > !expect then expect := a
      done;
      Alcotest.(check bool)
        (Printf.sprintf "slots %d..%d" first last)
        true
        (Float.equal !expect (Goertzel.Bank.band_max bank ~first ~last)))
    [ (0, 39); (1, 39); (7, 7); (12, 30); (5, 4) ];
  check_close "empty range" 0. (Goertzel.Bank.band_max bank ~first:3 ~last:2);
  Alcotest.(check bool) "peak ratio" true
    (Float.equal
       (Goertzel.Bank.amplitude bank 0
       /. Goertzel.Bank.band_max bank ~first:1 ~last:39)
       (Goertzel.Bank.peak_ratio bank ~slot:0 ~first:1 ~last:39))

(* --- window -------------------------------------------------------------- *)

let test_window_endpoints () =
  let h = Window.coefficients Window.Hann 101 in
  check_close "hann starts at 0" 0. h.(0);
  check_close "hann ends at 0" 0. h.(100);
  check_close "hann peak" 1. h.(50);
  let r = Window.coefficients Window.Rectangular 5 in
  Array.iter (fun x -> check_close "rect" 1. x) r

let test_window_symmetry () =
  List.iter
    (fun kind ->
      let w = Window.coefficients kind 64 in
      for i = 0 to 31 do
        check_close ~eps:1e-12 "symmetric" w.(i) w.(63 - i)
      done)
    [ Window.Rectangular; Window.Hann ]

let test_window_coherent_gain () =
  check_rel ~tol:0.02 "hann gain ~0.5" 0.5 (Window.coherent_gain Window.Hann 512);
  check_close "rect gain" 1. (Window.coherent_gain Window.Rectangular 512)

(* --- spectrum ------------------------------------------------------------ *)

let test_spectrum_bin_mapping () =
  let xs = Array.make 500 0. in
  let s = Spectrum.analyze ~detrend:`None xs ~sample_rate:(Units.Freq.hz 100.) in
  check_close "bin width" 0.2 (Spectrum.bin_width s);
  Alcotest.(check int) "bin of 5Hz" 25 (Spectrum.bin_of_freq s 5.);
  Alcotest.(check int) "clamp high" 250 (Spectrum.bin_of_freq s 1000.);
  Alcotest.(check int) "clamp low" 0 (Spectrum.bin_of_freq s (-3.));
  check_close "freq of bin" 5. (Spectrum.freq_of_bin s 25)

let test_spectrum_peak_and_band () =
  let xs = sinusoid ~n:500 ~sample_rate:100. ~freq:7. ~amp:1. ~phase:0. in
  let s = Spectrum.analyze ~detrend:`None xs ~sample_rate:(Units.Freq.hz 100.) in
  let f, a = Spectrum.dominant s ~above:0.5 in
  check_close "dominant freq" 7. f;
  check_rel ~tol:1e-6 "dominant amp" 250. a;
  check_rel ~tol:1e-6 "band max includes 7"
    250. (Spectrum.band_max s ~lo:6. ~hi:8.);
  check_close ~eps:1e-6 "band max excludes 7" 0.
    (Spectrum.band_max s ~lo:8. ~hi:10.)

let test_spectrum_detrend_linear () =
  (* a pure ramp should vanish almost entirely under linear detrending *)
  let xs = Array.init 500 (fun i -> 5e6 +. (1e4 *. float_of_int i)) in
  let raw = Spectrum.analyze ~detrend:`None xs ~sample_rate:(Units.Freq.hz 100.) in
  let linear = Spectrum.analyze ~detrend:`Linear xs ~sample_rate:(Units.Freq.hz 100.) in
  let low_raw = Spectrum.band_max raw ~lo:0.1 ~hi:10. in
  let low_linear = Spectrum.band_max linear ~lo:0.1 ~hi:10. in
  if low_linear > low_raw /. 100. then
    Alcotest.failf "linear detrend left %g vs %g" low_linear low_raw

(* with no detrend and the rectangular window the analyzer is |DFT| over
   bins 0 .. n/2, on both kernels *)
let test_spectrum_matches_dft () =
  List.iter
    (fun n ->
      let rng = Nimbus_sim.Rng.create (4000 + n) in
      let xs = Array.init n (fun _ -> Nimbus_sim.Rng.range rng ~lo:(-1.) ~hi:1.) in
      let s =
        Spectrum.analyze ~detrend:`None xs ~sample_rate:(Units.Freq.hz 100.)
      in
      let oracle = Fft.dft (Cbuf.of_real xs) in
      Alcotest.(check int) "n/2+1 bins" ((n / 2) + 1)
        (Array.length s.Spectrum.amplitudes);
      Array.iteri
        (fun k a ->
          check_close ~eps:1e-9
            (Printf.sprintf "bin %d at n=%d" k n)
            (Cbuf.magnitude oracle k) a)
        s.Spectrum.amplitudes)
    [ 1; 2; 3; 7; 100; 500; 512 ]

let test_spectrum_rejects_bad_input () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Spectrum.analyze: empty signal") (fun () ->
      ignore (Spectrum.analyze ~detrend:`None [||] ~sample_rate:(Units.Freq.hz 100.)));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Spectrum.analyze: sample_rate <= 0") (fun () ->
      ignore (Spectrum.analyze ~detrend:`None [| 1. |] ~sample_rate:(Units.Freq.hz 0.)))

(* --- ewma ---------------------------------------------------------------- *)

let test_ewma_first_sample () =
  let e = Ewma.create ~alpha:0.3 in
  Alcotest.(check bool) "uninit" false (Ewma.initialized e);
  Ewma.update e 10.;
  check_close "first" 10. (Ewma.value e);
  Alcotest.(check bool) "init" true (Ewma.initialized e)

let test_ewma_convergence () =
  let e = Ewma.create ~alpha:0.5 in
  for _ = 1 to 60 do
    Ewma.update e 42.
  done;
  check_rel ~tol:1e-9 "converges" 42. (Ewma.value e)

let test_ewma_reset () =
  let e = Ewma.create ~alpha:0.5 in
  Ewma.update e 10.;
  Ewma.reset e;
  Alcotest.(check bool) "reset" false (Ewma.initialized e);
  check_close "zero" 0. (Ewma.value e)

let test_ewma_time_constant () =
  (* a cut-off of f Hz is a time constant of 1/(2 pi f) s, after which the
     response to a step reaches 1 - 1/e *)
  let dt = 0.01 and tau = 0.5 in
  let e = Ewma.create_cutoff ~freq:(1. /. (2. *. Float.pi *. tau)) ~dt in
  Ewma.update e 0.;
  let steps = int_of_float (tau /. dt) in
  for _ = 1 to steps do
    Ewma.update e 1.
  done;
  check_rel ~tol:0.05 "step response at tau" (1. -. exp (-1.)) (Ewma.value e)

let test_ewma_invalid () =
  Alcotest.check_raises "alpha 0" (Invalid_argument "Ewma.create: alpha not in (0,1]")
    (fun () -> ignore (Ewma.create ~alpha:0.))

(* --- stats --------------------------------------------------------------- *)

let test_percentiles () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_close "p0" 1. (Stats.percentile xs 0.);
  check_close "p50" 3. (Stats.percentile xs 50.);
  check_close "p100" 5. (Stats.percentile xs 100.);
  check_close "p25 interp" 2. (Stats.percentile xs 25.);
  check_close "median" 3. (Stats.median xs)

let test_mean_variance () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_close "mean" 5. (Stats.mean xs);
  check_close "variance" 4. (Stats.variance xs);
  check_close "stddev" 2. (Stats.stddev xs)

let test_correlation () =
  let a = [| 1.; 2.; 3.; 4. |] in
  let b = [| 2.; 4.; 6.; 8. |] in
  let c = [| 8.; 6.; 4.; 2. |] in
  check_close "corr +1" 1. (Stats.correlation a b);
  check_close "corr -1" (-1.) (Stats.correlation a c)

let test_cross_correlation_lag () =
  (* y is x delayed by 3 samples: peak correlation at lag 3 *)
  let n = 200 in
  let rng = Nimbus_sim.Rng.create 4 in
  let x = Array.init n (fun _ -> Nimbus_sim.Rng.uniform rng) in
  let y = Array.init n (fun i -> if i < 3 then 0. else x.(i - 3)) in
  let corr = Stats.cross_correlation x y ~max_lag:6 in
  let best = ref 0 in
  Array.iteri (fun i c -> if c > corr.(!best) then best := i) corr;
  Alcotest.(check int) "lag found" 3 !best

let test_cdf_points () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let pts = Stats.cdf_points xs ~points:4 in
  Alcotest.(check int) "count" 4 (Array.length pts);
  let v, p = pts.(3) in
  check_close "last value" 4. v;
  check_close "last prob" 1. p

let test_relative_error () =
  check_close "exact" 0. (Stats.relative_error ~actual:5. ~expected:5.);
  check_close "50%" 0.5 (Stats.relative_error ~actual:5. ~expected:10.);
  Alcotest.(check bool) "zero expected" true
    (Stats.relative_error ~actual:1. ~expected:0. = infinity)

let prop_percentile_within_range =
  QCheck.Test.make ~count:100 ~name:"stats: percentile stays within min/max"
    QCheck.(pair (list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.)) (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let xs = Array.of_list xs in
      let v = Stats.percentile xs p in
      v >= Stats.minimum xs -. 1e-9 && v <= Stats.maximum xs +. 1e-9)

(* --- ring ---------------------------------------------------------------- *)

let test_ring_fifo () =
  let r = Ring.create 3 in
  Ring.push r 1.;
  Ring.push r 2.;
  Alcotest.(check bool) "not full" false (Ring.is_full r);
  Ring.push r 3.;
  Ring.push r 4.;
  Alcotest.(check bool) "full" true (Ring.is_full r);
  Alcotest.(check (array (float 0.))) "evicts oldest" [| 2.; 3.; 4. |]
    (Ring.to_array r);
  check_close "last" 4. (Ring.last r);
  check_close "nth 0" 4. (Ring.nth_from_end r 0);
  check_close "nth 2" 2. (Ring.nth_from_end r 2)

let test_ring_clear_fold () =
  let r = Ring.create 4 in
  List.iter (Ring.push r) [ 1.; 2.; 3. ];
  check_close "fold sum" 6. (Ring.fold r ~init:0. ~f:( +. ));
  Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Ring.count r)

let prop_ring_sum_fold_chronological =
  (* a ring of any capacity, wrapped to any head, holding any count: [sum],
     [sum_to], [fold] and [to_array] walk the two stored segments, and must
     equal the fold over the last [count] pushes in push order, bit for
     bit *)
  QCheck.Test.make ~count:300
    ~name:"ring: sum and fold equal the chronological fold"
    QCheck.(triple (int_range 1 64) (int_range 0 200) (int_range 0 10_000))
    (fun (cap, pushes, seed) ->
      let r = Ring.create cap in
      let st = Random.State.make [| seed |] in
      let pushed =
        Array.init pushes (fun _ -> Random.State.float st 2e6 -. 1e6)
      in
      Array.iter (Ring.push r) pushed;
      let n = min cap pushes in
      let chrono = Array.sub pushed (pushes - n) n in
      let bits = Int64.bits_of_float in
      let same a b = Int64.equal (bits a) (bits b) in
      let dst = Float.Array.make 2 nan in
      Ring.sum_to r dst 1;
      let sum = Array.fold_left ( +. ) 0. chrono in
      Ring.count r = n
      && Array.for_all2 same (Ring.to_array r) chrono
      && same (Ring.sum r) sum
      && same (Float.Array.get dst 1) sum
      && same (Ring.fold r ~init:0. ~f:( +. )) sum
      && same
           (Ring.fold r ~init:neg_infinity ~f:Float.max)
           (Array.fold_left Float.max neg_infinity chrono))

let test_ring_blit_to () =
  let r = Ring.create 3 in
  (* force wrap-around: oldest-to-newest order must survive the seam *)
  List.iter (Ring.push r) [ 1.; 2.; 3.; 4.; 5. ];
  let dst = Array.make 4 0. in
  Ring.blit_to r dst;
  Alcotest.(check (array (float 0.))) "wrapped blit" [| 3.; 4.; 5.; 0. |] dst;
  Alcotest.check_raises "short dst"
    (Invalid_argument "Ring.blit_to: dst too small") (fun () ->
      Ring.blit_to r (Array.make 2 0.))

let test_ring_sum () =
  let r = Ring.create 3 in
  check_close "empty sum" 0. (Ring.sum r);
  List.iter (Ring.push r) [ 1.; 2.; 3.; 4.; 5. ];
  (* only the surviving window counts *)
  check_close "wrapped sum" 12. (Ring.sum r)

(* A ring allocates its buffer at the first push, so every reader must
   accept one that has none yet; a cleared ring keeps its buffer. *)
let test_ring_before_first_push () =
  let r = Ring.create 500 in
  Alcotest.(check int) "capacity" 500 (Ring.capacity r);
  Alcotest.(check int) "count" 0 (Ring.count r);
  Alcotest.(check bool) "not full" false (Ring.is_full r);
  Alcotest.(check (array (float 0.))) "to_array" [||] (Ring.to_array r);
  Ring.blit_to r [||];
  check_close "sum" 0. (Ring.sum r);
  let dst = Float.Array.make 2 nan in
  Ring.sum_to r dst 1;
  check_close "sum_to" 0. (Float.Array.get dst 1);
  check_close "fold" 7. (Ring.fold r ~init:7. ~f:( +. ));
  Alcotest.check_raises "last" (Invalid_argument "Ring.last: empty") (fun () ->
      ignore (Ring.last r));
  Alcotest.check_raises "nth_from_end"
    (Invalid_argument "Ring.nth_from_end: out of range") (fun () ->
      ignore (Ring.nth_from_end r 0));
  Ring.clear r;
  Ring.push r 2.;
  Ring.push r 3.;
  check_close "sum after pushes" 5. (Ring.sum r);
  Ring.clear r;
  check_close "sum after clear" 0. (Ring.sum r);
  Ring.push r 4.;
  check_close "last after clear" 4. (Ring.last r)

let prop_ring_keeps_last_n =
  QCheck.Test.make ~count:100 ~name:"ring: to_array = last n pushes"
    QCheck.(pair (int_range 1 20) (list_of_size Gen.(int_range 0 100) (float_bound_exclusive 100.)))
    (fun (cap, xs) ->
      let r = Ring.create cap in
      List.iter (Ring.push r) xs;
      let expected =
        let n = List.length xs in
        let keep = min cap n in
        Array.of_list (List.filteri (fun i _ -> i >= n - keep) xs)
      in
      Ring.to_array r = expected)

(* [Extremum] through its register: a time goes into slot 0, a value into
   slot 1, and a query's result comes back from slot 1 *)
let ex_push f ~at v =
  Float.Array.set (Extremum.reg f) 0 at;
  Float.Array.set (Extremum.reg f) 1 v;
  Extremum.push f

let ex_front f ~horizon =
  Float.Array.set (Extremum.reg f) 0 horizon;
  Extremum.prune f;
  Extremum.front f;
  Float.Array.get (Extremum.reg f) 1

let ex_standing f ~horizon =
  Float.Array.set (Extremum.reg f) 0 horizon;
  Extremum.standing f;
  Float.Array.get (Extremum.reg f) 1

let test_extremum_basics () =
  let hi = Extremum.max () and lo = Extremum.min () in
  check_close "empty max" neg_infinity (ex_front hi ~horizon:0.);
  check_close "empty min" infinity (ex_front lo ~horizon:0.);
  List.iter
    (fun (at, v) ->
      ex_push hi ~at v;
      ex_push lo ~at v)
    [ (1., 3.); (2., nan); (3., 5.); (4., 1.); (5., 4.) ];
  check_close "max" 5. (ex_front hi ~horizon:0.);
  check_close "min" 1. (ex_front lo ~horizon:0.);
  check_close "max since 4" 4. (ex_standing hi ~horizon:4.);
  check_close "min since 4.5" 4. (ex_standing lo ~horizon:4.5);
  check_close "min since 6" infinity (ex_standing lo ~horizon:6.);
  check_close "max after pruning to 3.5" 4. (ex_front hi ~horizon:3.5);
  (* pruning is permanent: a horizon moved back restores nothing *)
  check_close "max with the horizon moved back" 4. (ex_front hi ~horizon:0.);
  check_close "a NaN horizon prunes nothing" 1. (ex_front lo ~horizon:nan)

(* Once grown, pushes, prunes and queries allocate nothing: every float
   crosses into the module and back through the register. *)
let test_extremum_allocates_nothing () =
  let hi = Extremum.max () and lo = Extremum.min () in
  let step f k =
    let reg = Extremum.reg f in
    let at = float_of_int k *. 1e-3 in
    Float.Array.set reg 0 at;
    Float.Array.set reg 1 (Float.of_int ((k * 7919) mod 1000));
    Extremum.push f;
    Float.Array.set reg 0 (at -. 1.);
    Extremum.prune f;
    Extremum.front f;
    Float.Array.set reg 0 (at -. 0.02);
    Extremum.standing f
  in
  for k = 0 to 4999 do
    step hi k;
    step lo k
  done;
  let before = Gc.minor_words () in
  for k = 5000 to 9999 do
    step hi k;
    step lo k
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. before)

(* Literal copies of the folds the filter replaced, each over a queue of
   every sample: BBR's [update_filters], Copa's [compute_rtt_stats] and
   µ's [observe]/[current].  Two deliberate departures, each the filter's
   rule: BBR's RTT fold skips NaN samples (its [Float.min] fold let one
   NaN win for 10 s), and Copa prunes by [at < now - 10] where it tested
   [now - at > 10]. *)
module Folds = struct
  let prune_before q horizon =
    let continue = ref true in
    while !continue do
      match Queue.peek_opt q with
      | Some (at, _) when at < horizon -> ignore (Queue.pop q)
      | _ -> continue := false
    done

  (* BBR: a max over ~10 srtt of rates and a min over 10 s of RTTs *)
  let bbr_bw q ~now ~srtt =
    prune_before q (now -. Float.max (10. *. srtt) 0.5);
    Queue.fold (fun acc (_, bw) -> Float.max acc bw) 0. q

  let bbr_rtt q ~now =
    prune_before q (now -. 10.);
    Queue.fold (fun acc (_, rtt) -> Float.min acc rtt) infinity q

  (* Copa: the 10 s min and max and the standing min *)
  let copa q ~now ~srtt =
    prune_before q (now -. 10.);
    let rtt_min = ref infinity and rtt_max = ref 0. in
    let standing = ref infinity in
    let standing_horizon = now -. Float.max (srtt /. 2.) 0.005 in
    Queue.iter
      (fun (at, rtt) ->
        if rtt < !rtt_min then rtt_min := rtt;
        if rtt > !rtt_max then rtt_max := rtt;
        if at >= standing_horizon && rtt < !standing then standing := rtt)
      q;
    (!rtt_min, !rtt_max, !standing)

  (* µ: [observe] refolds; [current] only forgets *)
  type mu = {
    window : float;
    samples : (float * float) Queue.t;
    mutable best : float;
  }

  let mu_observe m ~now ~rate =
    if Float.is_finite rate && rate > 0. then begin
      Queue.push (now, rate) m.samples;
      prune_before m.samples (now -. m.window);
      m.best <-
        Queue.fold (fun acc (_, r) -> Float.max acc r) neg_infinity m.samples
    end

  let mu_current m ~now =
    prune_before m.samples (now -. m.window);
    if Float.is_finite m.best then m.best else nan
end

module Mu = Nimbus_core.Z_estimator.Mu

let prop_extremum_matches_folds =
  (* time-ordered streams of samples, with queries in between at a drawn
     srtt, so BBR's rate horizon [10·srtt] moves back and forth; NaN, inf,
     negative values and ties among the samples, no signed zeros *)
  let value =
    QCheck.Gen.(
      frequency
        [ (6, float_range 1e-3 1e8); (1, return nan); (1, return infinity);
          (1, float_range (-1e8) (-1e-3));
          (* ties: equal values must keep the newest *)
          (2, map (fun k -> float_of_int k) (int_range 1 4)) ])
  in
  let op =
    QCheck.Gen.(
      pair (float_range 0. 0.4)
        (frequency
           [ (3, map (fun v -> `Push v) value);
             (1, map (fun srtt -> `Query srtt) (float_range 0. 1.5)) ]))
  in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  QCheck.Test.make ~count:300 ~name:"extremum: equals the folds it replaced"
    QCheck.(
      make Gen.(pair (float_range 0.05 3.) (list_size (int_range 0 400) op)))
    (fun (window, ops) ->
      let bw = Extremum.max () and rtt = Extremum.min () in
      let lo = Extremum.min () and hi = Extremum.max () in
      let mu = Mu.estimator ~window:(Units.Time.secs window) () in
      let bw_q = Queue.create () and rtt_q = Queue.create () in
      let copa_q = Queue.create () in
      let mu_f = { Folds.window; samples = Queue.create (); best = nan } in
      let now = ref 0. in
      List.for_all
        (fun (dt, op) ->
          now := !now +. dt;
          let now = !now in
          match op with
          | `Push v ->
            (* BBR pushes known rates only ([Rate.is_known]) *)
            if not (Float.is_nan v) then Queue.push (now, v) bw_q;
            ex_push bw ~at:now v;
            if not (Float.is_nan v) then Queue.push (now, v) rtt_q;
            ex_push rtt ~at:now v;
            Queue.push (now, v) copa_q;
            ex_push lo ~at:now v;
            ex_push hi ~at:now v;
            Mu.observe mu ~now:(Units.Time.secs now)
              ~recv_rate:(Units.Rate.bps v);
            Folds.mu_observe mu_f ~now ~rate:v;
            true
          | `Query srtt ->
            let bw_got =
              Float.max 0.
                (ex_front bw ~horizon:(now -. Float.max (10. *. srtt) 0.5))
            in
            let rtt_got = ex_front rtt ~horizon:(now -. 10.) in
            let min_got = ex_front lo ~horizon:(now -. 10.) in
            let max_got = Float.max 0. (ex_front hi ~horizon:(now -. 10.)) in
            let standing_got =
              ex_standing lo ~horizon:(now -. Float.max (srtt /. 2.) 0.005)
            in
            let mu_got =
              Units.Rate.to_bps (Mu.current mu ~now:(Units.Time.secs now))
            in
            let rtt_min, rtt_max, standing = Folds.copa copa_q ~now ~srtt in
            same bw_got (Folds.bbr_bw bw_q ~now ~srtt)
            && same rtt_got (Folds.bbr_rtt rtt_q ~now)
            && same min_got rtt_min && same max_got rtt_max
            && same standing_got standing
            && same mu_got (Folds.mu_current mu_f ~now))
        ops)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "dsp.cbuf",
      [ Alcotest.test_case "basics" `Quick test_cbuf_basics;
        Alcotest.test_case "of_real" `Quick test_cbuf_of_real;
        Alcotest.test_case "blit" `Quick test_cbuf_blit ] );
    ( "dsp.fft",
      [ Alcotest.test_case "power-of-two helpers" `Quick test_power_of_two;
        Alcotest.test_case "next_power_of_two bounds" `Quick
          test_next_power_of_two_bounds;
        Alcotest.test_case "impulse" `Quick test_fft_impulse;
        Alcotest.test_case "dc" `Quick test_fft_dc;
        Alcotest.test_case "sinusoid bin" `Quick test_fft_sinusoid_bin;
        Alcotest.test_case "radix2 = DFT" `Quick test_radix2_matches_dft;
        Alcotest.test_case "bluestein = DFT" `Quick test_bluestein_matches_dft;
        Alcotest.test_case "plan = DFT + roundtrip" `Quick test_plan_matches_dft;
        Alcotest.test_case "plan validation" `Quick test_plan_validation;
        Alcotest.test_case "parseval" `Quick test_parseval;
        qtest prop_fft_linearity;
        qtest prop_kernels_agree;
        qtest prop_kernels_agree_pow2 ] );
    ( "dsp.goertzel",
      [ Alcotest.test_case "matches fft bin" `Quick test_goertzel_matches_fft;
        Alcotest.test_case "rejects other freq" `Quick
          test_goertzel_rejects_other_freq;
        Alcotest.test_case "sliding window" `Quick test_goertzel_sliding;
        Alcotest.test_case "bank band max" `Quick test_bank_band_max;
        Alcotest.test_case "bank load = push" `Quick test_bank_load_matches_push;
        Alcotest.test_case "bank survives resyncs" `Quick
          test_bank_resync_drift;
        Alcotest.test_case "bank validation" `Quick test_bank_validation;
        qtest prop_bank_matches_spectrum ] );
    ( "dsp.window",
      [ Alcotest.test_case "endpoints" `Quick test_window_endpoints;
        Alcotest.test_case "symmetry" `Quick test_window_symmetry;
        Alcotest.test_case "coherent gain" `Quick test_window_coherent_gain ] );
    ( "dsp.spectrum",
      [ Alcotest.test_case "bin mapping" `Quick test_spectrum_bin_mapping;
        Alcotest.test_case "peak and band" `Quick test_spectrum_peak_and_band;
        Alcotest.test_case "linear detrend" `Quick test_spectrum_detrend_linear;
        Alcotest.test_case "analyze = DFT magnitudes" `Quick
          test_spectrum_matches_dft;
        Alcotest.test_case "input validation" `Quick
          test_spectrum_rejects_bad_input ] );
    ( "dsp.ewma",
      [ Alcotest.test_case "first sample" `Quick test_ewma_first_sample;
        Alcotest.test_case "convergence" `Quick test_ewma_convergence;
        Alcotest.test_case "reset" `Quick test_ewma_reset;
        Alcotest.test_case "time constant" `Quick test_ewma_time_constant;
        Alcotest.test_case "invalid alpha" `Quick test_ewma_invalid ] );
    ( "dsp.stats",
      [ Alcotest.test_case "percentiles" `Quick test_percentiles;
        Alcotest.test_case "mean/variance" `Quick test_mean_variance;
        Alcotest.test_case "correlation" `Quick test_correlation;
        Alcotest.test_case "cross-correlation lag" `Quick
          test_cross_correlation_lag;
        Alcotest.test_case "cdf points" `Quick test_cdf_points;
        Alcotest.test_case "relative error" `Quick test_relative_error;
        qtest prop_percentile_within_range ] );
    ( "dsp.ring",
      [ Alcotest.test_case "fifo" `Quick test_ring_fifo;
        Alcotest.test_case "clear/fold" `Quick test_ring_clear_fold;
        Alcotest.test_case "blit_to" `Quick test_ring_blit_to;
        Alcotest.test_case "sum" `Quick test_ring_sum;
        Alcotest.test_case "before the first push" `Quick
          test_ring_before_first_push;
        qtest prop_ring_keeps_last_n;
        qtest prop_ring_sum_fold_chronological ] );
    ( "dsp.extremum",
      [ Alcotest.test_case "max, min, standing, prune" `Quick
          test_extremum_basics;
        Alcotest.test_case "allocates nothing" `Quick
          test_extremum_allocates_nothing;
        qtest prop_extremum_matches_folds ] ) ]
