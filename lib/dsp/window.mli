(** Tapering windows for spectral analysis.

    The elasticity detector tapers its FFT window with Hann; the pulse
    keep-alive probes and ablation 7 (Hann vs rectangular) use the
    rectangular window. *)

type kind =
  | Rectangular
  | Hann

(** [coefficients kind n] is the length-[n] window. *)
val coefficients : kind -> int -> float array

(** [coherent_gain kind n] is the mean of the window coefficients — divide
    amplitudes by it to compare peak heights across window kinds. *)
val coherent_gain : kind -> int -> float
