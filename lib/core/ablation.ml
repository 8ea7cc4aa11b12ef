(** Ablation harness: demonstrate that every wait in Algorithm 1 is
    load-bearing.

    Each knob removes or shortens one of the algorithm's five waiting
    periods (see {!Wtlw.timing}).  For each faulty variant the harness
    runs adversarial scenarios — skewed clocks plus delay schedules
    chosen to realize the race the wait protects against — and reports
    whether the linearizability checker catches a violation or the
    replicas diverge.

    The paper proves the default timing correct (Theorem 6); these
    ablations are the executable converse: with the wait removed, a
    concrete admissible run violates linearizability, so the wait is
    not slack that a cleverer implementation could shave off wholesale.
    (Theorems 2-5 bound how much of it is inherent.) *)

type knob =
  | Paper  (** the repaired Algorithm 1 (the library default), the control *)
  | Paper_verbatim
      (** the paper's pseudocode exactly as published, accessor wait
          [d - X]: an accessor drain can execute a queued mutator ahead
          of a smaller-timestamped one still in flight — the
          reproduction finding; see {!Wtlw.paper_timing} *)
  | No_execute_wait
      (** execute mutators as soon as they are queued ([u + eps -> 0]):
          breaks the all-replicas-same-order guarantee under skew *)
  | Short_execute_wait of Rat.t  (** a partial version of the above *)
  | No_add_wait
      (** queue own mutators immediately ([d - u -> 0]): the invoker
          runs ahead of everyone else's view of the timestamp order *)
  | Eager_accessor of Rat.t
      (** respond accessors after the given wait instead of [d - X]:
          an accessor can miss a mutator that completed before it was
          invoked *)
  | No_accessor_backdate
      (** timestamp accessors with [local_time] instead of
          [local_time - X] (an ablation of pseudocode line 2) *)

let knob_name = function
  | Paper -> "repaired (default)"
  | Paper_verbatim -> "paper-verbatim"
  | No_execute_wait -> "no-execute-wait"
  | Short_execute_wait w -> Printf.sprintf "execute-wait=%s" (Rat.to_string w)
  | No_add_wait -> "no-add-wait"
  | Eager_accessor w -> Printf.sprintf "accessor-wait=%s" (Rat.to_string w)
  | No_accessor_backdate -> "no-accessor-backdate"

let timing_of_knob (model : Sim.Model.t) ~x knob =
  let base = Wtlw.default_timing model ~x in
  match knob with
  | Paper -> base
  | Paper_verbatim -> Wtlw.paper_timing model ~x
  | No_execute_wait -> { base with execute_wait = Rat.zero }
  | Short_execute_wait w -> { base with execute_wait = w }
  | No_add_wait -> { base with add_wait = Rat.zero }
  | Eager_accessor w -> { base with accessor_wait = w }
  | No_accessor_backdate -> { base with accessor_backdate = Rat.zero }

type outcome = {
  knob : knob;
  runs : int;
  linearizable_runs : int;
  converged_runs : int;
}

let violations o = o.runs - min o.linearizable_runs o.converged_runs
let sound o = o.linearizable_runs = o.runs && o.converged_runs = o.runs

let pp_outcome ppf o =
  Format.fprintf ppf "%-22s runs=%d linearizable=%d converged=%d%s"
    (knob_name o.knob) o.runs o.linearizable_runs o.converged_runs
    (if sound o then "" else "  <- VIOLATION CAUGHT")

module Make (T : Spec.Data_type.S) = struct
  module R = Runtime.Make (T)

  (* One adversarial scenario: maximal clock skew between p1 and p2,
     and a delay matrix that delivers p1's messages as fast as possible
     and p2's as slow as possible, so p1's mutators arrive long before
     p2's earlier-timestamped ones.  The schedule races mutators from
     both, then reads the object from several processes. *)
  let adversarial_run ~(model : Sim.Model.t) ~x ~knob ~seed =
    let half_eps = Rat.div_int model.eps 2 in
    let offsets =
      Array.init model.n (fun i ->
          if i = 1 then half_eps
          else if i = 2 then Rat.neg half_eps
          else Rat.zero)
    in
    let matrix = Sim.Net.uniform_matrix ~n:model.n model.d in
    (* p1's messages reach p0 fast but p3 slow; p2's the reverse: the
       two racing mutators arrive in opposite orders at p0 and p3. *)
    matrix.(1).(0) <- Sim.Model.min_delay model;
    matrix.(2).(3) <- Sim.Model.min_delay model;
    let rng = Random.State.make [| seed |] in
    (* Draw invocations until one whose operation class [keep] accepts. *)
    let rec pick keep =
      let inv = T.gen_invocation rng in
      if keep (List.assoc (T.op_of inv) T.operations) then inv else pick keep
    in
    let spaced keep proc count start spacing =
      List.init count (fun k ->
          Workload.entry ~proc
            ~at:(Rat.add start (Rat.mul_int spacing k))
            (pick keep))
    in
    let spacing = Rat.add (Rat.mul_int model.d 2) Rat.one in
    (* The opening race: an accessor invoked the instant a pure
       mutator at another process acknowledges (X + eps after its
       invocation) — the accessor must observe it despite the
       mutation's broadcast still being in flight. *)
    let ack_wait = Rat.add x model.eps in
    let race =
      [
        Workload.entry ~proc:2 ~at:Rat.zero
          (pick Spec.Op_kind.(equal Pure_mutator));
        Workload.entry ~proc:0
          ~at:(Rat.add ack_wait (Rat.make 1 50))
          (pick Spec.Op_kind.(equal Pure_accessor));
      ]
    in
    let start = Rat.mul_int spacing 1 in
    let schedule =
      race
      @ spaced Spec.Op_kind.is_mutator 1 4 start spacing
      @ spaced Spec.Op_kind.is_mutator 2 4 (Rat.add start (Rat.make 1 10))
          spacing
      @ spaced Spec.Op_kind.(equal Pure_accessor) 0 4 (Rat.mul_int spacing 6)
          spacing
      @ spaced
          Spec.Op_kind.(equal Pure_accessor)
          3 4
          (Rat.add (Rat.mul_int spacing 6) (Rat.make 1 7))
          spacing
    in
    let report =
      R.run
        (R.Config.make ~checker:Wing_gong
           ~timing:(fun model ~x -> timing_of_knob model ~x knob)
           ~model ~offsets ~delay:(Sim.Net.matrix matrix)
           ~algorithm:(Wtlw { x }) ~workload:(Schedule schedule) ())
    in
    (Option.is_some report.linearization, report.converged = Some true)

  let evaluate ~model ~x ~seeds knob =
    let results =
      List.map (fun seed -> adversarial_run ~model ~x ~knob ~seed) seeds
    in
    {
      knob;
      runs = List.length results;
      linearizable_runs = List.length (List.filter fst results);
      converged_runs = List.length (List.filter snd results);
    }

  let default_knobs (model : Sim.Model.t) ~x =
    [
      Paper;
      Paper_verbatim;
      No_execute_wait;
      Short_execute_wait (Rat.div_int (Rat.add model.u model.eps) 4);
      No_add_wait;
      Eager_accessor (Rat.div_int (Rat.sub model.d x) 4);
      No_accessor_backdate;
    ]

  let report ~model ~x ~seeds =
    List.map (evaluate ~model ~x ~seeds) (default_knobs model ~x)
end
