(** Ablation harness: demonstrate that every wait in Algorithm 1 is
    load-bearing.

    Each {!knob} removes or shortens one of the algorithm's waiting
    periods; {!Make.evaluate} runs adversarial scenarios against the
    variant and reports whether the linearizability checker catches a
    violation or the replicas diverge.  Every run goes through
    [Runtime.Make(T).run] with the knob as its [timing] override.  The
    deterministic scenario behind the reproduction finding (the paper's
    verbatim accessor wait produces a non-linearizable admissible run,
    the repaired default survives the identical schedule) is the
    builtin scenario [ablation-counterexample]
    ([Scenario.Builtin.ablation_counterexample]). *)

type knob =
  | Paper  (** the repaired Algorithm 1 (library default), the control *)
  | Paper_verbatim  (** the pseudocode as published (accessor wait d - X) *)
  | No_execute_wait  (** execute mutators as soon as queued *)
  | Short_execute_wait of Rat.t
  | No_add_wait  (** queue own mutators immediately *)
  | Eager_accessor of Rat.t  (** respond accessors after this short wait *)
  | No_accessor_backdate  (** timestamp accessors with [local] not [local - X] *)

val knob_name : knob -> string
val timing_of_knob : Sim.Model.t -> x:Rat.t -> knob -> Wtlw.timing

type outcome = {
  knob : knob;
  runs : int;
  linearizable_runs : int;
  converged_runs : int;
}

val violations : outcome -> int
val sound : outcome -> bool
(** All runs linearizable with converged replicas. *)

val pp_outcome : Format.formatter -> outcome -> unit

module Make (T : Spec.Data_type.S) : sig
  val adversarial_run :
    model:Sim.Model.t -> x:Rat.t -> knob:knob -> seed:int -> bool * bool
  (** One adversarial scenario (skewed clocks, asymmetric delays,
      accessor racing a fresh mutator); returns
      [(linearizable, replicas_converged)]. *)

  val evaluate :
    model:Sim.Model.t -> x:Rat.t -> seeds:int list -> knob -> outcome

  val default_knobs : Sim.Model.t -> x:Rat.t -> knob list

  val report :
    model:Sim.Model.t -> x:Rat.t -> seeds:int list -> outcome list
  (** {!evaluate} over {!default_knobs}. *)
end
