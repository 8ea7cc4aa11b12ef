(** End-to-end harness: build a cluster running a chosen algorithm,
    drive a workload through it, and distill the trace into a report —
    completed operations, a machine-checked linearization, and latency
    summaries per operation and per class.

    The single entry point is {!Make.run}, which takes a
    {!Make.Config.t} record naming every knob of a run. *)

type algorithm =
  | Wtlw of { x : Rat.t }  (** the paper's Algorithm 1 (repaired timing) *)
  | Centralized  (** folklore: forward everything to [p_0] *)
  | Tob  (** folklore: clock-based total-order broadcast *)

val algorithm_name : algorithm -> string

type checker =
  | Monitor
      (** per-type O(n log n) monitors ({!Monitor.Make}), falling back
          to Wing-Gong for unmonitored types and uncertifiable
          histories — the default *)
  | Wing_gong  (** force the exponential DFS (cross-validation) *)

val checker_name : checker -> string

module Make (T : Spec.Data_type.S) : sig
  module Sem : module type of Spec.Data_type.Semantics (T)
  module Checker : module type of Lin.Checker.Make (T)

  type nonrec algorithm = algorithm =
    | Wtlw of { x : Rat.t }  (** the paper's Algorithm 1 (repaired timing) *)
    | Centralized  (** folklore: forward everything to [p_0] *)
    | Tob  (** folklore: clock-based total-order broadcast *)

  val algorithm_name : algorithm -> string

  type nonrec checker = checker =
    | Monitor  (** per-type monitors with Wing-Gong fallback (default) *)
    | Wing_gong  (** force the exponential DFS *)

  val checker_name : checker -> string

  type workload =
    | Schedule of T.invocation Workload.entry list
        (** open loop: explicit invocation times (caller must respect
            the one-pending-operation constraint) *)
    | Closed_loop of { per_proc : int; think : Rat.t; seed : int }
        (** each process performs [per_proc] random operations, each
            invoked [think] after the previous response *)
    | Paced of { next : proc:int -> (Rat.t * T.invocation) option }
        (** streamed open loop with backpressure: [next ~proc] yields
            process [proc]'s next arrival ([None] = stream exhausted
            for that process), pulled once at start-up and then on each
            response; an arrival earlier than the response that pulled
            it is clamped forward, so the one-pending-operation
            constraint holds for any arrival rate.  Feed it from a
            {!Workload.Route} for generator-driven million-op runs that
            never materialize a schedule. *)

  (** Description of the reliable channel a run was layered over
      ([Config.channel]): its retransmission config, the inflated model
      the report was judged against, and the channel counters. *)
  type channel = {
    config : Reliable.config;
    effective : Sim.Model.t;
    stats : Reliable.stats;
  }

  type report = {
    algorithm : string;
    operations : (T.invocation, T.response) Sim.Trace.operation list;
    linearization : (T.invocation, T.response) Sim.Trace.operation list option;
        (** a legal real-time-respecting total order, when [check] was
            set and one exists *)
    by_op : (string * Metrics.summary) list;
    by_kind : (Spec.Op_kind.t * Metrics.summary) list;
    hist : Metrics.Hist.t;
        (** streaming latency histogram over all completed operations
            (p50/p99/p999 via {!Metrics.Hist.quantiles}) *)
    messages : int;
    events : int;
    pending : int;  (** invocations that never received a response *)
    delays_admissible : bool;
    skew_admissible : bool;
        (** were the clock offsets the processes actually ran with
            (engine offsets + injected perturbations) within the
            model's [eps]? *)
    faults : Sim.Trace.fault_counts;  (** injected-fault counters *)
    truncated : bool;
        (** the run hit the step limit; the report summarizes the
            prefix up to that point *)
    channel : channel option;  (** present for reliable-channel runs *)
    checked_by : string option;
        (** which engine produced [linearization] ("wing-gong", a
            per-type monitor, or a monitor-to-Wing-Gong fallback);
            [None] when checking was off *)
    converged : bool option;
        (** for Wtlw runs: do all replicas hold equal states at
            quiescence?  [None] for the baselines (the centralized and
            TOB implementations keep no per-process replicas to
            compare) *)
  }

  (** Everything that defines one run, in one declarative record. *)
  module Config : sig
    type t = {
      check : bool;  (** run the linearizability checker (default true) *)
      retain_events : bool;
          (** keep the per-message event list in memory (default true);
              with [false] the report is built entirely from the
              trace's streaming sinks *)
      faults : Sim.Fault.plan;  (** injected nemesis (default none) *)
      max_events : int option;
          (** engine step limit; an exceeded run is returned as a
              partial report with [truncated = true] *)
      max_check_nodes : int option;
          (** DFS node budget for the checker; an exceeded search
              raises {!Lin.Checker.Node_budget_exceeded} so a
              pathological cell aborts with a named diagnostic instead
              of hanging *)
      deadline : (unit -> bool) option;
          (** cooperative cancellation hook polled by the simulation
              loop; when it reports expiry the run aborts with
              {!Sim.Engine.Deadline_exceeded} (deliberately not caught:
              the sweep layer converts it into a [Cell_timeout]
              diagnostic, mirroring the node-budget pattern) *)
      checker : checker;
          (** which engine certifies histories (default [Monitor]) *)
      channel : Reliable.config option;
          (** [Some config]: wrap the algorithm's handlers in the
              {!Reliable} ack/retransmit channel and judge the whole
              run — internal timing, admissibility monitor, {!ok} —
              against [Reliable.inflated_model] ([d' = d + k * rto] by
              default, [eps] widened by the plan's injected skew).
              [None]: the algorithm runs directly on the network. *)
      timing : (Sim.Model.t -> x:Rat.t -> Wtlw.timing) option;
          (** override Algorithm 1's five waiting periods (the ablation
              knobs, [Core.Ablation.timing_of_knob]); applied to the
              model the run is judged against (the inflated model on
              reliable legs).  Overrides skip [run]'s X-validity
              check — ablation timings are deliberately outside the
              sound envelope.  Ignored by the baselines.
              [None] (the default): the repaired
              {!Wtlw.default_timing}. *)
      model : Sim.Model.t;
      offsets : Rat.t array;
      delay : Sim.Net.t;
      algorithm : algorithm;
      workload : workload;
    }

    val make :
      ?check:bool ->
      ?retain_events:bool ->
      ?faults:Sim.Fault.plan ->
      ?max_events:int ->
      ?max_check_nodes:int ->
      ?deadline:(unit -> bool) ->
      ?checker:checker ->
      ?channel:Reliable.config ->
      ?timing:(Sim.Model.t -> x:Rat.t -> Wtlw.timing) ->
      model:Sim.Model.t ->
      offsets:Rat.t array ->
      delay:Sim.Net.t ->
      algorithm:algorithm ->
      workload:workload ->
      unit ->
      t

    val reliable : ?config:Reliable.config -> t -> t
    (** Set the [channel] field; [config] defaults to
        [Reliable.default_config] of the record's model. *)
  end

  val kind_of : T.invocation -> Spec.Op_kind.t

  val run : Config.t -> report
  (** Build, drive to quiescence, and summarize in one pass over the
      trace's streaming sinks.  Counts, latency summaries, pairing and
      admissibility are identical with [retain_events] on or off.
      Injected faults show up in the report's [faults] counters and its
      admissibility / pending / linearization verdicts.  A run
      exceeding [max_events] is returned as a partial report with
      [truncated = true] rather than raising.  Both legs build the
      algorithm from its protocol handlers on one engine; a reliable
      leg ([channel] set) wraps them in {!Reliable.wrap} and is judged
      against [Reliable.inflated_model].
      @raise Invalid_argument when the algorithm is [Wtlw] with no
      [timing] override and X is outside [[0, d - eps]] of the model
      the run is judged against.
      @raise Lin.Checker.Node_budget_exceeded when [max_check_nodes]
      is set and the linearizability search exceeds it.
      @raise Sim.Engine.Deadline_exceeded when [deadline] is set and
      reports expiry mid-run. *)

  val ok : report -> bool
  (** Every operation completed ([pending = 0]), the run was not
      truncated, delays and skew admissible, and a linearization
      found. *)

  val pp_report : Format.formatter -> report -> unit
end
