(** Algorithm 1 of the paper — the Wang–Talmage–Lee–Welch linearizable
    implementation of an arbitrary data type (§5.1).

    Operations are partitioned by their declared {!Spec.Op_kind.t}:

    - {b AOP} (pure accessors) respond [d - X] after invocation.  On
      invocation the process sets a single timer; no messages are sent.
      The operation's timestamp is {e backdated} by [X] (line 2 of the
      pseudocode) so that accessors serialize correctly against
      mutators despite responding early.
    - {b MOP} (pure mutators) respond [X + eps] after invocation
      (timer), independently of when the mutation is applied to the
      replicas.
    - {b OOP} (mixed operations) respond when they execute at their
      invoking process, [d + eps] after invocation.

    Every mutator (MOP or OOP) is broadcast on invocation.  A process
    adds a mutator to its [To_Execute] priority queue when the message
    arrives — or, at the invoking process, when a local timer
    simulating the minimum message delay [d - u] expires — and then
    waits a further [u + eps] before executing it, which guarantees no
    smaller-timestamped mutator can still be in flight.  All processes
    therefore apply all mutators in the same (timestamp) order, and the
    linearization of Construction 1 in the paper is realized.

    The parameter [X] in [[0, d - eps]] trades accessor speed against
    mutator speed (following Chaudhuri–Gawlick–Lynch). *)

(* The five waiting periods Algorithm 1 is built from.  The default
   values below are exactly the paper's; {!Make.protocol} accepts
   altered values (through [Runtime.Config.timing]) so that the
   ablation harness can demonstrate that each wait is load-bearing
   (see [Core.Ablation]). *)
type timing = {
  accessor_wait : Rat.t;  (** respond a pure accessor after this; paper: d - X *)
  accessor_backdate : Rat.t;  (** subtract from accessor timestamps; paper: X *)
  mutator_ack_wait : Rat.t;  (** acknowledge a pure mutator after; paper: X + eps *)
  add_wait : Rat.t;
      (** queue own mutators after (simulated minimum delay); paper: d - u *)
  execute_wait : Rat.t;  (** execute after queueing; paper: u + eps *)
}

(* The paper's pseudocode verbatim: accessors respond d - X after
   invocation.  REPRODUCTION FINDING: this wait is an [eps] too short.
   The accessor drain (pseudocode lines 4-8) executes every queued
   mutator with timestamp at most [local - X], but a mutator with a
   {e smaller} timestamp issued at a process whose clock runs [eps]
   ahead can still be in flight at that moment (it arrives only by
   local time [ts + d + eps]).  The accessor's replica then applies the
   two mutators in the opposite order from every other replica, and
   later accessors observe the divergence: a machine-checked
   non-linearizable admissible run (see [Core.Ablation.Paper_verbatim]
   and the deterministic counterexample in test/test_ablation.ml, or
   EXPERIMENTS.md for the full scenario).  Lemma 5 of the paper proves
   same-order execution only for the [u + eps] execute timers and
   overlooks the early executions at line 6. *)
let paper_timing (model : Sim.Model.t) ~x =
  {
    accessor_wait = Rat.sub model.d x;
    accessor_backdate = x;
    mutator_ack_wait = Rat.add x model.eps;
    add_wait = Rat.sub model.d model.u;
    execute_wait = Rat.add model.u model.eps;
  }

(* The repaired timing: accessors wait [d - X + eps].  By that time
   every mutator with timestamp at most the accessor's backdated
   timestamp [local - X] has arrived (a timestamp-[ts] mutator arrives
   by local time [ts + d + eps]), so the drain always applies a
   gap-free timestamp prefix and all replicas execute mutators in the
   same order; and every mutator that responded before the accessor's
   invocation has a timestamp at most [local - X], so the real-time
   order is respected.  The repair costs the accessor exactly [eps]
   over the paper's claimed bound (the alternative repair — making
   pure mutators wait [X + 2 eps] instead — shifts the same [eps] onto
   mutators). *)
let default_timing (model : Sim.Model.t) ~x =
  {
    (paper_timing model ~x) with
    accessor_wait = Rat.add (Rat.sub model.d x) model.eps;
  }

module Make (T : Spec.Data_type.S) = struct
  module Sem = Spec.Data_type.Semantics (T)

  type msg = Op_msg of { inv : T.invocation; ts : Timestamp.t }

  type tag =
    | Respond_aop of { inv : T.invocation; ts : Timestamp.t }
    | Respond_ack of T.invocation
    | Add of { inv : T.invocation; ts : Timestamp.t }
    | Execute of Timestamp.t

  type queued = { inv : T.invocation; exec_timer : int }

  type pstate = {
    mutable store : T.state;  (* local replica, maintained by replay *)
    mutable to_execute : queued Timestamp.Map.t;
    mutable awaiting : Timestamp.t option;
        (* timestamp of the pending OOP invoked here, if any *)
  }

  type engine = (msg, tag, T.invocation, T.response) Sim.Engine.t

  (* A running cluster: the engine plus the replicas' states (exposed
     read-only for convergence checks in tests and examples). *)
  type t = { engine : engine; states : pstate array; timing : timing }

  let fresh_pstate () =
    { store = T.initial; to_execute = Timestamp.Map.empty; awaiting = None }

  (* Apply every queued mutator with timestamp at most [ts], in
     timestamp order, cancelling their execute timers; respond if one
     of them is the OOP pending at this process (pseudocode lines
     4-8 and 22-29). *)
  let execute_up_to p (ctx : (msg, tag, T.response) Sim.Engine.ctx) ts =
    let rec drain () =
      match Timestamp.Map.min_binding_opt p.to_execute with
      | Some (ts', { inv; exec_timer }) when Timestamp.le ts' ts ->
          p.to_execute <- Timestamp.Map.remove ts' p.to_execute;
          ctx.cancel_timer exec_timer;
          let store', ret = T.apply p.store inv in
          p.store <- store';
          (match p.awaiting with
          | Some awaited when Timestamp.equal awaited ts' ->
              p.awaiting <- None;
              ctx.respond ret
          | Some _ | None -> ());
          drain ()
      | Some _ | None -> ()
    in
    drain ()

  let fresh_states ~n = Array.init n (fun _ -> fresh_pstate ())

  (* The handler triple, separated from engine construction so the
     same protocol can run either directly on an engine or wrapped by
     the reliable channel ([Core.Reliable]) over a lossy one. *)
  let protocol ~timing states =
    let add_to_queue p (ctx : (msg, tag, T.response) Sim.Engine.ctx) inv ts =
      let exec_timer = ctx.set_timer_after timing.execute_wait (Execute ts) in
      p.to_execute <- Timestamp.Map.add ts { inv; exec_timer } p.to_execute
    in
    let on_invoke (ctx : (msg, tag, T.response) Sim.Engine.ctx) inv =
      let p = states.(ctx.self) in
      match Sem.kind_of inv with
      | Spec.Op_kind.Pure_accessor ->
          (* Timestamp backdated by X; respond after d - X (line 2). *)
          let ts =
            Timestamp.make
              ~time:(Rat.sub ctx.local_time timing.accessor_backdate)
              ~proc:ctx.self
          in
          ignore
            (ctx.set_timer_after timing.accessor_wait (Respond_aop { inv; ts }))
      | (Spec.Op_kind.Pure_mutator | Spec.Op_kind.Mixed) as kind ->
          let ts = Timestamp.make ~time:ctx.local_time ~proc:ctx.self in
          (match kind with
          | Spec.Op_kind.Pure_mutator ->
              (* Pure mutators respond X + eps after invocation
                 (lines 11-13, 16-17). *)
              ignore
                (ctx.set_timer_after timing.mutator_ack_wait (Respond_ack inv))
          | Spec.Op_kind.Mixed -> p.awaiting <- Some ts
          | Spec.Op_kind.Pure_accessor -> assert false);
          (* Simulate the minimum delay locally before queueing the own
             operation (line 14), and tell everyone else (line 15). *)
          ignore (ctx.set_timer_after timing.add_wait (Add { inv; ts }));
          ctx.broadcast (Op_msg { inv; ts })
    in
    let on_receive (ctx : (msg, tag, T.response) Sim.Engine.ctx) ~src:_ msg =
      let p = states.(ctx.self) in
      match msg with Op_msg { inv; ts } -> add_to_queue p ctx inv ts
    in
    let on_timer (ctx : (msg, tag, T.response) Sim.Engine.ctx) tag =
      let p = states.(ctx.self) in
      match tag with
      | Respond_aop { inv; ts } ->
          (* Execute smaller-timestamped mutators first, then evaluate
             the accessor on the replica (lines 3-9). *)
          execute_up_to p ctx ts;
          let _, ret = T.apply p.store inv in
          ctx.respond ret
      | Respond_ack inv ->
          (* A pure mutator's response cannot depend on the state
             (otherwise the operation would be an accessor), so the
             current replica determines it even though the mutation
             itself executes later. *)
          ctx.respond (snd (T.apply p.store inv))
      | Add { inv; ts } -> add_to_queue p ctx inv ts
      | Execute ts -> execute_up_to p ctx ts
    in
    { Sim.Engine.on_invoke; on_receive; on_timer }

  (* Algorithm 1 with the repaired default timing derived from the
     model and the tradeoff parameter X in [0, d - eps]. *)
  let create ?retain_events ?faults ~(model : Sim.Model.t) ~x ~offsets ~delay
      () =
    if not (Sim.Model.x_valid model x) then
      invalid_arg "Wtlw.create: X must lie in [0, d - eps]";
    let timing = default_timing model ~x in
    let states = fresh_states ~n:model.n in
    let engine =
      Sim.Engine.create ?retain_events ?faults ~model ~offsets ~delay
        ~handlers:(protocol ~timing states)
        ()
    in
    { engine; states; timing }

  let replica_state t i = t.states.(i).store

  let states_converged states =
    if Array.length states = 0 then true
    else
      let reference = states.(0).store in
      Array.for_all (fun p -> T.equal_state p.store reference) states

  let replicas_converged t = states_converged t.states
end
