(** Scheduled fault injection for the §8 robustness scenarios.

    A {!plan} is a declarative list of timed fault events; {!attach} wires it
    onto a live engine/bottleneck/flow set by scheduling the state changes,
    so any experiment — or the CLI via [--faults SPEC] — can run under
    adverse conditions: Gilbert–Elliott burst loss, link-rate steps,
    link flaps (µ → 0 outages with restore), propagation-delay steps and
    jitter, ACK-path loss, and flow kills (pulser death).

    Spec syntax, clauses joined with [';'] or [',']; times/durations in
    seconds, delays in milliseconds:
    {v
      burst@T:PENTER/PEXIT[/LGOOD]/LBAD   Gilbert–Elliott loss from T on
      lossoff@T                           remove the loss process
      step@T:MBPS                         set the link rate
      flap@T:DUR                          outage: µ=0 for DUR, then restore
      delay@T:MS                          extra one-way delay step
      jitter@T1-T2:AMPMS/PERIODMS         delay jitter in [0, AMP) per period
      acks@T:P                            drop each ACK with probability P
      acksoff@T                           remove ACK loss
      kill@T:IDX                          stop attached flow number IDX
    v}
    Example: ["burst@30:0.05/0.4/0.3;flap@50:2;kill@20:0"]. *)

type event =
  | Burst_loss of {
      at : Units.Time.t;
      p_enter : float;
      p_exit : float;
      loss_good : float;
      loss_bad : float;
    }  (** install a {!Gilbert_elliott} loss process on the data path *)
  | Loss_off of Units.Time.t
  | Rate_step of {
      at : Units.Time.t;
      rate : Units.Rate.t;
    }
  | Outage of {
      at : Units.Time.t;
      duration : Units.Time.t;
    }  (** µ → 0 at [at]; the rate observed at that instant is restored *)
  | Delay_step of {
      at : Units.Time.t;
      extra : Units.Time.t;
    }
  | Delay_jitter of {
      at : Units.Time.t;
      until : Units.Time.t;
      amp : Units.Time.t;
      period : Units.Time.t;
    }  (** uniform extra delay in [0, amp) re-drawn every [period] *)
  | Ack_loss of {
      at : Units.Time.t;
      p : float;
    }
  | Ack_loss_off of Units.Time.t
  | Kill_flow of {
      at : Units.Time.t;
      index : int;
    }  (** stop the [index]-th attached flow — e.g. the pulser *)

type plan = event list

(** [parse spec] reads the CLI syntax above. *)
val parse : string -> (plan, string) result

(** [to_string plan] renders a plan back into spec syntax. *)
val to_string : plan -> string

(** [attach ~engine ~bottleneck ~flows ~rng plan] schedules every event.
    Delay and ACK events apply to every flow in [flows]; [Kill_flow]
    indexes into it. Randomness (burst loss, jitter, ACK loss) is split off
    [rng] per event in plan order, so a plan is deterministic given the rng
    seed. Events must lie at or after the engine's current time.
    @raise Invalid_argument on non-finite event times or a kill index
    outside [flows]. *)
val attach :
  engine:Nimbus_sim.Engine.t ->
  bottleneck:Nimbus_sim.Bottleneck.t ->
  ?flows:Nimbus_cc.Flow.t array ->
  rng:Nimbus_sim.Rng.t ->
  plan ->
  unit
