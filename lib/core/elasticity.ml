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
  taper : Nimbus_dsp.Window.kind;
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
  (* the sample being added, handed to the ring and the banks in place *)
  sample : Float.Array.t;
}

let sample_interval = Time.ms 10.

let sample_secs = Time.to_secs sample_interval

let sample_rate = 1. /. sample_secs

let eta_thresh = 2.0

(* the comparison band's edge guard and the detrend mode: see the .mli *)
let band_guard_hz = Freq.to_hz (Freq.hz 0.5)

let detrend : Spectrum.detrend = `Linear

let create ?(window = Time.secs 5.0) ?(taper = Nimbus_dsp.Window.Hann) () =
  let window = Time.to_secs window in
  if window <= sample_secs then invalid_arg "Elasticity.create: window";
  let n = int_of_float (Float.round (window /. sample_secs)) in
  { ring = Ring.create n; taper; bank = None; tuned = [| nan |];
    watch = None; watch_bank = None; watch_gain = [| nan |];
    sample = Float.Array.make 1 0. }

(* The sample goes to the ring and the banks through [t.sample], which they
   read in place: a float passed across a module boundary is boxed.
   Inlined into both forms below, for the same reason. *)
let[@inline] add_raw t z =
  (* two stores, not one of an [if]: an [if] whose one arm is a call's
     boxed result boxes the other arm too *)
  if not (Float.is_nan z) then Float.Array.set t.sample 0 z
  else if Ring.count t.ring > 0 then Float.Array.set t.sample 0 (Ring.last t.ring)
  else Float.Array.set t.sample 0 0.;
  Ring.push_at t.ring t.sample 0;
  (match t.bank with Some bank -> Bank.push_at bank t.sample 0 | None -> ());
  match t.watch_bank with
  | Some bank -> Bank.push_at bank t.sample 0
  | None -> ()

let add_sample t z = add_raw t z

let add_sample_at t src i = add_raw t (Float.Array.get src i)

let ready t = Ring.is_full t.ring

(* A chronological copy of the window.  Cold path: only spectra and bank
   loads read the whole window. *)
let window_copy t =
  let xs = Array.make (Ring.capacity t.ring) 0. in
  Ring.blit_to t.ring xs;
  xs

let spectrum t =
  if not (ready t) then None
  else
    Some
      (Spectrum.analyze ~window:t.taper ~detrend
         ~sample_rate:(Freq.hz sample_rate) (window_copy t))

(* Reference η: the one-shot FFT evaluation of Eq. 3 over the window. *)
let eta_fft t freq =
  match spectrum t with
  | None -> nan
  | Some s ->
    let peak = Spectrum.amplitude_at s freq in
    let neighbour =
      Spectrum.band_max s ~lo:(freq +. band_guard_hz)
        ~hi:((2. *. freq) -. band_guard_hz)
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
  let w = sample_rate /. float_of_int n in
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
    Bank.create ~window:n ~taper:t.taper ~detrend ~bins ()
  in
  Bank.load bank (window_copy t);
  bank

(* (Re)tune the η bank to pulse frequency [freq]: the peak bin, then the
   guarded comparison band (freq + guard, 2*freq - guard). *)
let tune t freq =
  t.bank <-
    Some
      (load_bank t ~tones:[| freq |] ~lo:(freq +. band_guard_hz)
         ~hi:((2. *. freq) -. band_guard_hz));
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
    else Some (if e >= eta_thresh then Elastic else Inelastic)
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
let[@inline] oscillation t amp = 2. *. amp /. t.watch_gain.(0)

let tone_oscillation t i =
  match watch_bank t with
  | None -> nan
  | Some bank -> oscillation t (Bank.amplitude bank i)

let watch_reference t =
  match watch_bank t with
  | None -> nan
  | Some bank ->
    Bank.band_max bank
      ~first:(Array.length (watched t).tones)
      ~last:(Bank.nbins bank - 1)

(* The three readers above in one call, each level written into [dst]:
   a watcher reads them all on every tick it searches, and a float
   returned across a module boundary is boxed. *)
let watch_levels t dst =
  match watch_bank t with
  | None -> false
  | Some bank ->
    let k = Array.length (watched t).tones in
    for i = 0 to k - 1 do
      Bank.amplitude_to bank i dst i;
      Float.Array.set dst (k + i) (oscillation t (Float.Array.get dst i))
    done;
    Bank.band_max_to bank ~first:k ~last:(Bank.nbins bank - 1) dst (2 * k);
    true

(* the sum passes through [dst.(i)] rather than a box *)
let mean_to t dst i =
  let c = Ring.count t.ring in
  if c = 0 then Float.Array.set dst i 0.
  else begin
    Ring.sum_to t.ring dst i;
    Float.Array.set dst i (Float.Array.get dst i /. float_of_int c)
  end
[@@alloc_free]
