module Ring = Nimbus_dsp.Ring
module Spectrum = Nimbus_dsp.Spectrum
module Bank = Nimbus_dsp.Goertzel.Bank
module Window = Nimbus_dsp.Window
module Time = Units.Time
module Freq = Units.Freq

type verdict =
  | Elastic
  | Inelastic

(* A watcher's search (see [watch]): pulse frequencies and a reference band,
   in Hz. *)
type watch = {
  tones : float array;
  lo : float;
  hi : float;
}

(* Internals stay raw float (Hz, seconds) — the typed boundary is the .mli.
   The record deliberately has no mutable float field: assigning one in a
   mixed record boxes on every write, and this type sits on the per-tick hot
   path. *)
type t = {
  ring : Ring.t;
  sample_rate : float;
  eta_thresh : float;
  band_guard_hz : float;
  taper : Nimbus_dsp.Window.kind;
  detrend : Spectrum.detrend;
  scratch : float array; (* chronological window copy fed to the analyzer *)
  spec_state : Spectrum.state;
  (* the spectrum is recomputed lazily, at most once per new sample;
     [analyze_into] always returns the same physical record, so the [Some]
     cell is allocated once and reused *)
  mutable cached_spectrum : Spectrum.t option;
  mutable dirty : bool;
  (* Streaming η: a sliding-DFT bank tuned to one pulse frequency — slot 0
     is the peak bin, slots 1.. the comparison band — built lazily on the
     first η evaluation at that frequency (the FFT fallback) and re-tuned
     whenever the requested frequency changes (a mode transition).  The
     tuned frequency lives in a one-cell float array: a mutable float field
     in this mixed record would box on every write. *)
  mutable bank : Bank.t option;
  tuned : float array; (* [0] = tuned pulse frequency in Hz; nan = untuned *)
  (* The watcher bank: the [watch] tones in slots 0.., then the reference
     band, built and loaded from the ring on the first readout. *)
  mutable watch : watch option;
  mutable watch_bank : Bank.t option;
  watch_gain : float array; (* [0] = n * the taper's coherent gain *)
}

let create ?(sample_interval = Time.ms 10.) ?(window = Time.secs 5.0)
    ?(eta_thresh = 2.0) ?(band_guard = Freq.hz 0.5)
    ?(taper = Nimbus_dsp.Window.Hann) ?(detrend = `Linear) () =
  let sample_interval = Time.to_secs sample_interval in
  let window = Time.to_secs window in
  let band_guard_hz = Freq.to_hz band_guard in
  if sample_interval <= 0. then
    invalid_arg "Elasticity.create: sample_interval";
  if window <= sample_interval then invalid_arg "Elasticity.create: window";
  if eta_thresh < 1. then invalid_arg "Elasticity.create: eta_thresh < 1";
  if band_guard_hz < 0. then invalid_arg "Elasticity.create: negative guard";
  let n = int_of_float (Float.round (window /. sample_interval)) in
  let sample_rate = 1. /. sample_interval in
  { ring = Ring.create n; sample_rate; eta_thresh; band_guard_hz; taper;
    detrend;
    scratch = Array.make n 0.;
    spec_state =
      Spectrum.create_state ~window:taper ~detrend ~n
        ~sample_rate:(Freq.hz sample_rate) ();
    cached_spectrum = None; dirty = true;
    bank = None; tuned = [| nan |];
    watch = None; watch_bank = None; watch_gain = [| nan |] }

let add_sample t z =
  let z =
    if Float.is_nan z then
      (if Ring.count t.ring > 0 then Ring.last t.ring else 0.)
    else z
  in
  Ring.push t.ring z;
  t.dirty <- true;
  (match t.bank with Some bank -> Bank.push bank z | None -> ());
  match t.watch_bank with Some bank -> Bank.push bank z | None -> ()

let ready t = Ring.is_full t.ring

let spectrum t =
  if not (ready t) then None
  else begin
    if t.dirty then begin
      Ring.blit_to t.ring t.scratch;
      let s = Spectrum.analyze_into t.spec_state t.scratch in
      (match t.cached_spectrum with
      | Some _ -> () (* [s] is the same record the option already holds *)
      | None -> t.cached_spectrum <- Some s);
      t.dirty <- false
    end;
    t.cached_spectrum
  end

(* Reference η: the full Plan-FFT evaluation of Eq. 3 over the window. *)
let eta_fft t freq =
  match spectrum t with
  | None -> nan
  | Some s ->
    let peak = Spectrum.amplitude_at s freq in
    let neighbour =
      Spectrum.band_max s ~lo:(freq +. t.band_guard_hz)
        ~hi:((2. *. freq) -. t.band_guard_hz)
    in
    if neighbour <= 0. then if peak > 0. then infinity else nan
    else peak /. neighbour

(* Streaming η from the tuned bank: slot 0 is the peak bin, slots 1.. the
   comparison band, whose max replicates [Spectrum.band_max] over the same
   bin set.  The ratio's infinity and nan cases are [eta_fft]'s. *)
let eta_bank bank =
  Bank.peak_ratio bank ~slot:0 ~first:1 ~last:(Bank.nbins bank - 1)
[@@alloc_free]

(* A bank over the window tracking exactly the bins the FFT path reads: for
   each of [tones] the clamped-round bin of [Spectrum.bin_of_freq], then
   every bin whose centre lies strictly inside (lo, hi) as in
   [Spectrum.band_max], primed from the current ring contents.  Cold path:
   runs on a bank's first readout and on pulse-frequency changes. *)
let load_bank t ~tones ~lo ~hi =
  let n = Ring.capacity t.ring in
  let w = t.sample_rate /. float_of_int n in
  let top = n / 2 in
  let nearest f =
    let k = int_of_float (Float.round (f /. w)) in
    if k < 0 then 0 else if k > top then top else k
  in
  let in_band k =
    let f = float_of_int k *. w in
    f > lo && f < hi
  in
  let band = List.filter in_band (List.init (top + 1) Fun.id) in
  let bins = Array.append (Array.map nearest tones) (Array.of_list band) in
  let bank =
    Bank.create ~window:n ~taper:t.taper ~detrend:t.detrend ~bins ()
  in
  Ring.blit_to t.ring t.scratch;
  Bank.load bank t.scratch;
  bank

(* (Re)tune the η bank to pulse frequency [freq]: the peak bin, then the
   guarded comparison band (freq + guard, 2*freq - guard). *)
let tune t freq =
  t.bank <-
    Some
      (load_bank t ~tones:[| freq |] ~lo:(freq +. t.band_guard_hz)
         ~hi:((2. *. freq) -. t.band_guard_hz));
  t.tuned.(0) <- freq

let eta t ~freq =
  let freq = Freq.to_hz freq in
  if not (ready t) then nan
  else begin
    match t.bank with
    | Some bank when Float.equal t.tuned.(0) freq && Bank.filled bank ->
      eta_bank bank
    | _ ->
      (* fallback: frequency change (or first call) — answer from the FFT
         path, then tune the bank so subsequent ticks stream *)
      let e = eta_fft t freq in
      tune t freq;
      e
  end

let eta_reference t ~freq =
  let freq = Freq.to_hz freq in
  if not (ready t) then nan else eta_fft t freq

let classify t ~freq =
  if not (ready t) then None
  else begin
    let e = eta t ~freq in
    if Float.is_nan e then None
    else Some (if e >= t.eta_thresh then Elastic else Inelastic)
  end

let peak_amplitude t ~freq =
  let freq = Freq.to_hz freq in
  match t.bank with
  | Some bank when Float.equal t.tuned.(0) freq && Bank.filled bank ->
    Bank.amplitude bank 0
  | _ -> (
    match spectrum t with
    | None -> nan
    | Some s -> Spectrum.amplitude_at s freq)

let watch t ~tones ~lo ~hi =
  t.watch <-
    Some
      { tones = Array.map Freq.to_hz tones; lo = Freq.to_hz lo;
        hi = Freq.to_hz hi };
  t.watch_bank <- None

let watched t =
  match t.watch with
  | None -> invalid_arg "Elasticity: no watch configured"
  | Some w -> w

(* The watcher bank once the window is full, built on the first call. *)
let watch_bank t =
  let w = watched t in
  if not (ready t) then None
  else begin
    (match t.watch_bank with
     | Some _ -> ()
     | None ->
       let n = Ring.capacity t.ring in
       t.watch_gain.(0) <- float_of_int n *. Window.coherent_gain t.taper n;
       t.watch_bank <- Some (load_bank t ~tones:w.tones ~lo:w.lo ~hi:w.hi));
    t.watch_bank
  end

let tone_amplitude t i =
  match watch_bank t with None -> nan | Some bank -> Bank.amplitude bank i

(* |FFT(f)| of a windowed sinusoid of amplitude a is a·N·cg/2 where cg is
   the taper's coherent gain; invert that to read the amplitude back. *)
let tone_oscillation t i =
  match watch_bank t with
  | None -> nan
  | Some bank -> 2. *. Bank.amplitude bank i /. t.watch_gain.(0)

let watch_reference t =
  match watch_bank t with
  | None -> nan
  | Some bank ->
    Bank.band_max bank
      ~first:(Array.length (watched t).tones)
      ~last:(Bank.nbins bank - 1)

let eta_thresh t = t.eta_thresh

let sample_rate t = Freq.hz t.sample_rate

let samples t = Ring.to_array t.ring

let mean t =
  let c = Ring.count t.ring in
  if c = 0 then 0. else Ring.sum t.ring /. float_of_int c
