(** End-to-end harness: build a cluster running a chosen algorithm,
    drive a workload through it, and distill the trace into a report —
    completed operations, a machine-checked linearization, and latency
    summaries per operation and per class.

    There is a single entry point, [run : Config.t -> report]: the
    [Config] record names every knob (checking, event retention, fault
    plan, step limit, reliable-channel leg, model, offsets, delay,
    algorithm, workload), so the sweep engine, the CLI, the bench, the
    robustness matrix and the ablation harness all describe a run the
    same way.  [run] is also the one cluster builder: every algorithm is
    built from its protocol handlers on one engine, and the reliable
    leg only swaps the judged model and wraps the handlers. *)

(* The algorithm choice does not depend on the data type, so it lives
   outside the functor — the sweep engine enumerates algorithms without
   instantiating anything. *)
type algorithm = Wtlw of { x : Rat.t } | Centralized | Tob

let algorithm_name = function
  | Wtlw { x } -> Printf.sprintf "wtlw(X=%s)" (Rat.to_string x)
  | Centralized -> "centralized"
  | Tob -> "total-order-broadcast"

(* Which linearizability engine certifies the run.  [Monitor] routes
   through the per-type O(n log n) monitors ({!Monitor.Make}), which
   themselves fall back to Wing-Gong for unmonitored types and
   uncertifiable histories, so it is always a safe default; [Wing_gong]
   forces the exponential DFS, kept as a cross-validation escape
   hatch. *)
type checker = Monitor | Wing_gong

let checker_name = function Monitor -> "monitor" | Wing_gong -> "wing-gong"

module Make (T : Spec.Data_type.S) = struct
  module Sem = Spec.Data_type.Semantics (T)
  module Checker = Lin.Checker.Make (T)
  module Mon = Monitor.Make (T)
  module Wtlw_impl = Wtlw.Make (T)
  module Centralized_impl = Centralized.Make (T)
  module Tob_impl = Tob.Make (T)

  type nonrec algorithm = algorithm = Wtlw of { x : Rat.t } | Centralized | Tob
  type nonrec checker = checker = Monitor | Wing_gong

  let algorithm_name = algorithm_name
  let checker_name = checker_name

  type workload =
    | Schedule of T.invocation Workload.entry list
    | Closed_loop of { per_proc : int; think : Rat.t; seed : int }
    | Paced of { next : proc:int -> (Rat.t * T.invocation) option }

  (* Description of the reliable channel a run was layered over, when
     [Config.channel] was set: the retransmission config, the inflated
     model the report was checked against, and the live channel
     counters. *)
  type channel = {
    config : Reliable.config;
    effective : Sim.Model.t;
    stats : Reliable.stats;
  }

  type report = {
    algorithm : string;
    operations : (T.invocation, T.response) Sim.Trace.operation list;
    linearization : (T.invocation, T.response) Sim.Trace.operation list option;
    by_op : (string * Metrics.summary) list;
    by_kind : (Spec.Op_kind.t * Metrics.summary) list;
    hist : Metrics.Hist.t;
    messages : int;
    events : int;
    pending : int;
    delays_admissible : bool;
    skew_admissible : bool;
    faults : Sim.Trace.fault_counts;
    truncated : bool;
    channel : channel option;
    checked_by : string option;
        (** which engine produced [linearization] ("wing-gong", a
            per-type monitor, or a monitor-to-Wing-Gong fallback);
            [None] when checking was off *)
    converged : bool option;
        (** for Wtlw runs: do all replicas hold equal states at
            quiescence?  [None] for the baselines (centralized and TOB
            keep no per-process replicas to compare) *)
  }

  module Config = struct
    type t = {
      check : bool;
      retain_events : bool;
      faults : Sim.Fault.plan;
      max_events : int option;
      max_check_nodes : int option;
      deadline : (unit -> bool) option;
      checker : checker;
      channel : Reliable.config option;
      timing : (Sim.Model.t -> x:Rat.t -> Wtlw.timing) option;
      model : Sim.Model.t;
      offsets : Rat.t array;
      delay : Sim.Net.t;
      algorithm : algorithm;
      workload : workload;
    }

    let make ?(check = true) ?(retain_events = true)
        ?(faults = Sim.Fault.none) ?max_events ?max_check_nodes ?deadline
        ?(checker = Monitor) ?channel ?timing ~model ~offsets ~delay
        ~algorithm ~workload () =
      {
        check;
        retain_events;
        faults;
        max_events;
        max_check_nodes;
        deadline;
        checker;
        channel;
        timing;
        model;
        offsets;
        delay;
        algorithm;
        workload;
      }

    let reliable ?config cfg =
      {
        cfg with
        channel =
          Some
            (match config with
            | Some c -> c
            | None -> Reliable.default_config cfg.model);
      }
  end

  let kind_of inv = Sem.kind_of inv

  (* Certify a completed history with the configured engine.  Returns
     the linearization witness (when one exists) and the engine label
     for the report. *)
  let certify ?max_nodes ~checker operations =
    match checker with
    | Wing_gong -> (Checker.check ?max_nodes operations, "wing-gong")
    | Monitor ->
        let r = Mon.check ?max_nodes operations in
        let label =
          match r.Mon.fallback with
          | Some _ when r.Mon.method_ = Monitor.Wing_gong ->
              "monitor, fell back to wing-gong"
          | _ -> Monitor.method_to_string r.Mon.method_
        in
        (r.Mon.linearization, label)

  (* Drive one engine (of any algorithm) through the workload. *)
  let drive (type m g) ?max_events ?deadline ~(model : Sim.Model.t)
      (engine : (m, g, T.invocation, T.response) Sim.Engine.t) workload =
    (match workload with
    | Schedule entries ->
        List.iter
          (fun { Workload.proc; at; inv } ->
            Sim.Engine.schedule_invoke engine ~at ~proc inv)
          (Workload.sort_schedule entries)
    | Closed_loop { per_proc; think; seed } ->
        let rng = Random.State.make [| seed |] in
        let remaining = Array.make model.n per_proc in
        Sim.Engine.set_response_callback engine
          (fun ~proc ~inv:_ ~resp:_ ~time ->
            if remaining.(proc) > 0 then begin
              remaining.(proc) <- remaining.(proc) - 1;
              Sim.Engine.schedule_invoke engine ~at:(Rat.add time think) ~proc
                (T.gen_invocation rng)
            end);
        for proc = 0 to model.n - 1 do
          remaining.(proc) <- remaining.(proc) - 1;
          Sim.Engine.schedule_invoke engine
            ~at:(Rat.make proc (2 * model.n))
            ~proc (T.gen_invocation rng)
        done
    | Paced { next } ->
        (* Open loop with backpressure: each process holds at most one
           pending invocation; the next arrival is scheduled when the
           previous operation responds, clamped forward to the response
           time if the process fell behind its arrival stream. *)
        Sim.Engine.set_response_callback engine
          (fun ~proc ~inv:_ ~resp:_ ~time ->
            match next ~proc with
            | None -> ()
            | Some (at, inv) ->
                Sim.Engine.schedule_invoke engine ~at:(Rat.max at time) ~proc
                  inv);
        for proc = 0 to model.n - 1 do
          match next ~proc with
          | None -> ()
          | Some (at, inv) -> Sim.Engine.schedule_invoke engine ~at ~proc inv
        done);
    Sim.Engine.run ?max_events ?deadline engine

  (* Create the engine on the judged model and assemble the report
     from the trace's streaming sinks: counters, pairing and
     admissibility are O(1) lookups, and latency summaries accumulate
     in [Metrics.Grouped] sinks as responses are recorded, so the
     report needs no per-operation metric pass afterwards.  A run that
     hits the step limit is not lost: the sinks hold everything up to
     the truncation point, so the report is returned with
     [truncated = true] (and typically [pending > 0]). *)
  let report_of_run (cfg : Config.t) ~(judged : Sim.Model.t) ?channel
      ~algorithm handlers =
    let engine =
      Sim.Engine.create ~retain_events:cfg.retain_events ~faults:cfg.faults
        ~model:judged ~offsets:cfg.offsets ~delay:cfg.delay ~handlers ()
    in
    let trace = Sim.Engine.trace engine in
    let by_op_acc = Metrics.Grouped.create () in
    let by_kind_acc = Metrics.Grouped.create () in
    let hist = Metrics.Hist.create () in
    Sim.Trace.on_operation trace (fun op ->
        let l = Metrics.latency op in
        Metrics.Grouped.add by_op_acc (T.op_of op.inv) l;
        Metrics.Grouped.add by_kind_acc (kind_of op.inv) l;
        Metrics.Hist.add hist l);
    (* A deadline expiry is deliberately NOT caught here: unlike the
       step limit (whose partial report is still meaningful), a wall
       budget means the caller wants the cell abandoned — the campaign
       layer turns the escaping [Sim.Engine.Deadline_exceeded] into a
       named [Cell_timeout] diagnostic, mirroring how
       [Lin.Checker.Node_budget_exceeded] is surfaced. *)
    let truncated =
      match
        drive ?max_events:cfg.max_events ?deadline:cfg.deadline ~model:judged
          engine cfg.workload
      with
      | () -> false
      | exception Sim.Engine.Step_limit_exceeded _ -> true
    in
    let operations = Sim.Trace.operations trace in
    let linearization, checked_by =
      if cfg.check then
        let lin, label =
          certify ?max_nodes:cfg.max_check_nodes ~checker:cfg.checker
            operations
        in
        (lin, Some label)
      else (None, None)
    in
    {
      algorithm;
      operations;
      linearization;
      checked_by;
      by_op = Metrics.Grouped.summaries by_op_acc;
      by_kind = Metrics.Grouped.summaries by_kind_acc;
      hist;
      messages = Sim.Trace.send_count trace;
      events = Sim.Trace.event_count trace;
      pending = Sim.Trace.pending_count trace;
      delays_admissible = Sim.Trace.delays_admissible judged trace;
      skew_admissible =
        Sim.Model.skew_valid judged (Sim.Engine.effective_offsets engine);
      faults = Sim.Trace.fault_counts trace;
      truncated;
      channel;
      converged = None;
    }

  (* The one cluster builder.  Each algorithm is built from its
     protocol handlers on one engine; the two legs differ only in the
     model they are judged against.  Direct leg ([channel = None]): the
     algorithm straight on the configured network, judged against the
     configured model.  Recovered leg ([channel = Some config]): the
     same handlers wrapped by the reliable channel ([Reliable.wrap]) on
     a faulty network, judged against the inflated model
     [d' = d + retry budget] the channel implements.  The algorithm's
     internal timing, the X-range check, the admissibility and skew
     verdicts and the checker all use the judged model. *)
  let run (cfg : Config.t) =
    let judged =
      match cfg.channel with
      | None -> cfg.model
      | Some config ->
          Reliable.inflated_model
            ~extra_skew:(Sim.Fault.extra_skew cfg.faults)
            ~max_spike:(Sim.Fault.max_spike cfg.faults) config cfg.model
    in
    let start handlers =
      let algorithm = algorithm_name cfg.algorithm in
      match cfg.channel with
      | None -> report_of_run cfg ~judged ~algorithm handlers
      | Some config ->
          let handlers, stats = Reliable.wrap ~config ~n:judged.n handlers in
          report_of_run cfg ~judged
            ~channel:{ config; effective = judged; stats }
            ~algorithm:(algorithm ^ "+reliable") handlers
    in
    match cfg.algorithm with
    | Wtlw { x } ->
        (* An explicit timing override (the ablation knobs) skips the
           X-range check on purpose: the overridden timings are
           deliberately outside the sound envelope. *)
        let timing =
          match cfg.timing with
          | Some timing_of -> timing_of judged ~x
          | None ->
              if not (Sim.Model.x_valid judged x) then
                invalid_arg "Runtime.run: X must lie in [0, d - eps]";
              Wtlw.default_timing judged ~x
        in
        let states = Wtlw_impl.fresh_states ~n:judged.n in
        let report = start (Wtlw_impl.protocol ~timing states) in
        { report with converged = Some (Wtlw_impl.states_converged states) }
    | Centralized ->
        start (Centralized_impl.protocol (Centralized_impl.fresh_hub ()))
    | Tob ->
        start
          (Tob_impl.protocol ~model:judged (Tob_impl.fresh_states ~n:judged.n))

  (* A run is accepted when every operation completed, the run was not
     truncated, delays and clock skew were admissible, and a
     linearization was found. *)
  let ok report =
    report.pending = 0
    && (not report.truncated)
    && report.delays_admissible
    && report.skew_admissible
    && Option.is_some report.linearization

  let pp_report ppf r =
    Format.fprintf ppf "@[<v>%s: %d operations, %d messages, %d events@,"
      r.algorithm
      (List.length r.operations)
      r.messages r.events;
    Format.fprintf ppf "linearizable: %b; delays admissible: %b; pending: %d@,"
      (Option.is_some r.linearization)
      r.delays_admissible r.pending;
    (match r.checked_by with
    | Some engine -> Format.fprintf ppf "checked by: %s@," engine
    | None -> ());
    (match r.converged with
    | Some c -> Format.fprintf ppf "replicas converged: %b@," c
    | None -> ());
    (match Metrics.Hist.quantiles r.hist with
    | Some q -> Format.fprintf ppf "latency %a@," Metrics.Hist.pp_quantiles q
    | None -> ());
    if not r.skew_admissible then Format.fprintf ppf "skew: inadmissible@,";
    if r.truncated then Format.fprintf ppf "TRUNCATED (step limit)@,";
    if Sim.Trace.total_faults r.faults > 0 then
      Format.fprintf ppf
        "faults: %d dropped, %d duplicated, %d spiked, %d crashed, %d skewed@,"
        r.faults.dropped r.faults.duplicated r.faults.spiked r.faults.crashed
        r.faults.skewed;
    (match r.channel with
    | None -> ()
    | Some { config; effective; stats } ->
        Format.fprintf ppf
          "channel: rto=%a retries=%d d'=%a; %d sent, %d retransmits, %d \
           acked, %d dups suppressed, %d exhausted@,"
          Rat.pp config.rto config.max_retries Rat.pp effective.d stats.sent
          stats.retransmits stats.acked stats.duplicates stats.exhausted);
    List.iter
      (fun (op, s) ->
        Format.fprintf ppf "  %-16s %a@," op Metrics.pp_summary s)
      r.by_op;
    List.iter
      (fun (kind, s) ->
        Format.fprintf ppf "  [%s] %a@," (Spec.Op_kind.to_string kind)
          Metrics.pp_summary s)
      r.by_kind;
    Format.fprintf ppf "@]"
end
