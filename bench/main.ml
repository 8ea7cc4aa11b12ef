(* Benchmark harness: regenerates every table and figure of the paper.

   Run with: dune exec bench/main.exe            (everything)
             dune exec bench/main.exe -- tables  (just the tables)

   Sections:
   - Tables 1-5: the bound formulas evaluated at the model parameters,
     side by side with worst-case latencies MEASURED from simulator
     runs of Algorithm 1 (and the folklore baselines for context).
   - Figure 1: the Theorem 3 runs R1 and shifted R2, rendered from an
     actual execution of the algorithm.
   - Figures 2 and 4-7: the Theorem 4 delay matrices.
   - Figures 3 and 9: run sketches for the Theorem 4/5 scenarios.
   - Figures 8 and 10: the Theorem 5 delay matrices.
   - Figure 11: the operation-class containment table, discovered by
     the classification search over every bundled data type.
   - Lemma 4: measured per-class latencies against the formulas.
   - Sweep engine: the table campaign grid evaluated on one domain and
     again on a pool, checking the fingerprints are byte-identical and
     reporting both wall clocks.
   - Robustness: the fault-injection matrix, each nemesis case raw and
     over the reliable channel (driven by [Sweep.robustness]).
   - Bechamel microbenchmarks: one per table (wall-clock cost of
     regenerating each table's measured workload), plus the three
     algorithms on a fixed workload. *)

let rat = Rat.make

(* Reference parameters: n = 4, d = 12, u = 4, optimally synchronized
   clocks (eps = 3), X = 3.  All bounds below are in these time units. *)
let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1)
let x = rat 3 1
let offsets = [| Rat.zero; rat 1 1; rat (-1) 1; rat 3 2 |]

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Measured worst-case latency per operation, per algorithm, via the   *)
(* sweep engine.  One campaign grid replaces the old per-type          *)
(* sequential loops: a cell per (type, algorithm, delay schedule,      *)
(* seed), sharded across domains by [Sweep.run], with the adversarial  *)
(* all-max/all-min schedules realizing the worst cases the tables      *)
(* compare against.                                                    *)

let packed key =
  match Sweep.Packed_type.find key with
  | Some pt -> pt
  | None -> failwith ("bench: unknown packed type " ^ key)

let bench_grid =
  {
    Sweep.default_grid with
    types =
      [ packed "rmw-register"; packed "queue"; packed "stack"; packed "tree" ];
    algos =
      [
        Sweep.Wtlw { frac = Rat.div x (Rat.sub model.d model.eps) };
        Sweep.Centralized;
        Sweep.Tob;
      ];
    points = [ model ];
    delays = [ Sweep.Random_delays; Sweep.Max_delays; Sweep.Min_delays ];
    legs = [ Sweep.Raw ];
    seeds = [ 10; 11 ];
    per_proc = 8;
  }

let campaign = lazy (Sweep.run ~jobs:1 bench_grid)

(* Merge per-op maxima over every completed cell of one (type, algo)
   slice of the campaign. *)
let max_by_op ~type_key ~algo (t : Sweep.t) =
  let table = Hashtbl.create 8 in
  Array.iteri
    (fun i (c : Sweep.cell) ->
      let algo_matches =
        match (c.algo, algo) with
        | Sweep.Wtlw _, `Wtlw -> true
        | Sweep.Centralized, `Centralized -> true
        | Sweep.Tob, `Tob -> true
        | _ -> false
      in
      if algo_matches && String.equal (Sweep.Packed_type.key c.dt) type_key
      then
        match t.results.(i) with
        | Sweep.Pool.Done (v : Sweep.verdict) ->
            List.iter
              (fun (op, (s : Core.Metrics.summary)) ->
                let current =
                  Option.value ~default:s.max (Hashtbl.find_opt table op)
                in
                Hashtbl.replace table op (Rat.max current s.max))
              v.by_op
        | _ -> ())
    t.cells;
  Hashtbl.fold (fun op v acc -> (op, v) :: acc) table []

let measured_wtlw type_key =
  max_by_op ~type_key ~algo:`Wtlw (Lazy.force campaign)

(* Map a table row's operation label to measured values. *)
type source = Single of string | Sum of string * string

let measured_value measured = function
  | Single op -> List.assoc_opt op measured
  | Sum (a, b) -> (
      match (List.assoc_opt a measured, List.assoc_opt b measured) with
      | Some va, Some vb -> Some (Rat.add va vb)
      | _ -> None)

let print_table_with_measurements (table : Bounds.Tables.table) ~measured
    ~sources =
  Format.printf "@.%s  (n=%d, d=%s, u=%s, eps=%s, X=%s)@." table.title
    model.n (Rat.to_string model.d) (Rat.to_string model.u)
    (Rat.to_string model.eps) (Rat.to_string x);
  Format.printf "%-22s | %-22s | %-26s | %-16s | %-14s | %s@." "Operation"
    "Previous LB" "New LB" "New UB" "Measured(Alg1)" "LB<=meas<=UB";
  Format.printf "%s@." (String.make 130 '-');
  List.iter
    (fun (row : Bounds.Tables.row) ->
      let fmt_bound = function
        | None -> "-"
        | Some (b : Bounds.Tables.bound) ->
            Printf.sprintf "%s = %s (%s)" b.formula (Rat.to_string b.value)
              b.source
      in
      let source = List.assoc row.operation sources in
      let meas = measured_value measured source in
      let meas_str =
        match meas with None -> "-" | Some v -> Rat.to_string v
      in
      let verdict =
        match meas with
        | None -> "-"
        | Some v ->
            let lb_ok =
              match row.new_lb with
              | None -> true
              | Some lb -> Rat.ge v lb.value
            in
            let ub_ok =
              match source with
              | Single _ -> Rat.le v row.new_ub.value
              | Sum _ ->
                  (* Sum rows bound each operation separately; the
                     measured sum is compared against the sum of the
                     component upper bounds, which for Algorithm 1 is
                     d + eps + (the partner's bound); here we only
                     check the lower bound side plus sanity vs 2(d+eps). *)
                  Rat.le v (Rat.mul_int (Rat.add model.d model.eps) 2)
            in
            if lb_ok && ub_ok then "ok" else "VIOLATION"
      in
      Format.printf "%-22s | %-22s | %-26s | %-16s | %-14s | %s@."
        row.operation (fmt_bound row.prev_lb) (fmt_bound row.new_lb)
        (fmt_bound (Some row.new_ub)) meas_str verdict)
    table.rows

let run_tables () =
  section "Tables 1-4: per-data-type bounds, theory vs measured";
  print_table_with_measurements
    (Bounds.Tables.rmw_register model ~x)
    ~measured:(measured_wtlw "rmw-register")
    ~sources:
      [
        ("read-modify-write", Single "rmw");
        ("write", Single "write");
        ("read", Single "read");
        ("write + read", Sum ("write", "read"));
      ];
  print_table_with_measurements
    (Bounds.Tables.queue model ~x)
    ~measured:(measured_wtlw "queue")
    ~sources:
      [
        ("enqueue", Single "enqueue");
        ("dequeue", Single "dequeue");
        ("peek", Single "peek");
        ("enqueue + peek", Sum ("enqueue", "peek"));
      ];
  print_table_with_measurements
    (Bounds.Tables.stack model ~x)
    ~measured:(measured_wtlw "stack")
    ~sources:
      [
        ("push", Single "push");
        ("pop", Single "pop");
        ("peek", Single "peek");
        ("push + peek", Sum ("push", "peek"));
      ];
  print_table_with_measurements
    (Bounds.Tables.tree model ~x)
    ~measured:(measured_wtlw "tree")
    ~sources:
      [
        ("insert", Single "insert");
        ("delete", Single "delete");
        ("depth", Single "depth");
        ("insert + depth", Sum ("insert", "depth"));
        ("delete + depth", Sum ("delete", "depth"));
      ];
  section "Table 5: summary by operation class";
  Format.printf "%a@." Bounds.Tables.pp_table (Bounds.Tables.summary model ~x)

(* ------------------------------------------------------------------ *)
(* Figures.                                                            *)

module Q = Spec.Fifo_queue
module QAlgo = Core.Wtlw.Make (Q)

let label_queue_inv = function
  | Q.Enqueue v -> Printf.sprintf "enq%d" v
  | Q.Dequeue -> "deq"
  | Q.Peek -> "peek"

(* Theorem 3 scenario: k concurrent enqueues under the skewed-ring
   matrix, then the shifted run. *)
let figure1 () =
  section "Figure 1: runs used in the proof of Theorem 3 (k = 4)";
  let k = model.n in
  let matrix = Bounds.Adversary.Thm3.base_matrix model ~k in
  let cluster =
    QAlgo.create ~model ~x ~offsets:(Array.make model.n Rat.zero)
      ~delay:(Sim.Net.matrix matrix) ()
  in
  let t0 = rat 2 1 in
  for i = 0 to k - 1 do
    Sim.Engine.schedule_invoke cluster.engine ~at:t0 ~proc:i
      (Q.Enqueue (i + 1))
  done;
  Sim.Engine.run cluster.engine;
  let trace = Sim.Engine.trace cluster.engine in
  let render t =
    Bounds.Diagram.render ~n:model.n
      (Bounds.Diagram.of_operations ~label:label_queue_inv
         (Sim.Trace.operations t))
  in
  Format.printf "run R1 (pair-wise uniform delays d_ij = d - ((i-j)%%k)/k u):@.%s@."
    (render trace);
  let z = 2 in
  let shift = Bounds.Adversary.Thm3.shift_vector model ~k ~z in
  let shifted = Bounds.Shifting.shift_trace trace shift in
  Format.printf
    "@.run R2 = shift(R1, x) with z = %d (x_i = (-(k-1)/2k + ((z-i)%%k)/k) u):@.%s@."
    z (render shifted);
  let offsets_after =
    Bounds.Shifting.shifted_offsets (Array.make model.n Rat.zero) shift
  in
  Format.printf "@.max skew after shift: %s (eps = %s); delays all valid: %b@."
    (Rat.to_string (Bounds.Shifting.max_skew offsets_after))
    (Rat.to_string model.eps)
    (Sim.Trace.delays_admissible model shifted)

let figure3_and_9 () =
  section "Figure 3: Theorem 4 scenario (two concurrent pair-free ops)";
  let matrix = Bounds.Adversary.Thm4.d1_matrix model in
  let mm = Bounds.Adversary.Thm4.m model in
  let cluster =
    QAlgo.create ~model ~x ~offsets:(Array.make model.n Rat.zero)
      ~delay:(Sim.Net.matrix matrix) ()
  in
  Sim.Engine.schedule_invoke cluster.engine ~at:Rat.zero ~proc:0 (Q.Enqueue 9);
  let t = rat 40 1 in
  Sim.Engine.schedule_invoke cluster.engine ~at:t ~proc:0 Q.Dequeue;
  Sim.Engine.schedule_invoke cluster.engine ~at:(Rat.add t mm) ~proc:1
    Q.Dequeue;
  Sim.Engine.run cluster.engine;
  let trace = Sim.Engine.trace cluster.engine in
  Format.printf "%s@."
    (Bounds.Diagram.render ~n:model.n
       (Bounds.Diagram.of_operations ~label:label_queue_inv
          (Sim.Trace.operations trace)));
  section "Figure 9: Theorem 5 scenario (concurrent mutators then accessors)";
  let matrix5 = Bounds.Adversary.Thm5.d_matrix model in
  let cluster5 =
    QAlgo.create ~model ~x ~offsets:(Array.make model.n Rat.zero)
      ~delay:(Sim.Net.matrix matrix5) ()
  in
  let t = rat 5 1 in
  let t_max = Rat.add t (Rat.add model.d model.eps) in
  Sim.Engine.schedule_invoke cluster5.engine ~at:t ~proc:0 (Q.Enqueue 1);
  Sim.Engine.schedule_invoke cluster5.engine ~at:t ~proc:1 (Q.Enqueue 2);
  Sim.Engine.schedule_invoke cluster5.engine ~at:t_max ~proc:0 Q.Peek;
  Sim.Engine.schedule_invoke cluster5.engine ~at:t_max ~proc:1 Q.Peek;
  Sim.Engine.schedule_invoke cluster5.engine ~at:(Rat.add t_max mm) ~proc:2
    Q.Peek;
  Sim.Engine.run cluster5.engine;
  Format.printf "%s@."
    (Bounds.Diagram.render ~n:model.n
       (Bounds.Diagram.of_operations ~label:label_queue_inv
          (Sim.Trace.operations (Sim.Engine.trace cluster5.engine))))

let figure_matrices () =
  section "Figures 2, 4-7: Theorem 4 delay matrices (m = min{eps,u,d/3})";
  List.iter
    (fun (name, matrix) ->
      Format.printf "@.%s:@.%a@." name Sim.Net.pp_matrix matrix)
    (Bounds.Adversary.Thm4.matrices model);
  section "Figures 8, 10: Theorem 5 delay matrices";
  List.iter
    (fun (name, matrix) ->
      Format.printf "@.%s:@.%a@." name Sim.Net.pp_matrix matrix)
    (Bounds.Adversary.Thm5.matrices model);
  section "Proof-arithmetic claims (machine-checked)";
  let report label claims =
    let failing = Bounds.Adversary.failing claims in
    Format.printf "%-10s %d claims checked, %d failing@." label
      (List.length claims) (List.length failing);
    List.iter
      (fun c -> Format.printf "  %a@." Bounds.Adversary.pp_claim c)
      failing
  in
  report "Theorem 2" (Bounds.Adversary.Thm2.claims model);
  report "Theorem 3"
    (List.concat_map
       (fun k -> Bounds.Adversary.Thm3.claims model ~k)
       [ 2; 3; 4 ]);
  report "Theorem 4" (Bounds.Adversary.Thm4.claims model);
  report "Theorem 5" (Bounds.Adversary.Thm5.claims model)

let figure11 () =
  section "Figure 11: operation classes discovered by the search";
  let print_type (type s i r)
      (module T : Spec.Data_type.S
        with type state = s
         and type invocation = i
         and type response = r) (extra : i list list) =
    let module C = Spec.Classify.Make (T) in
    let u = C.default_universe ~extra () in
    Format.printf "@.%s:@." T.name;
    List.iter
      (fun r -> Format.printf "  %a@." Spec.Classify.pp_op_report r)
      (C.report u)
  in
  print_type (module Spec.Register) [];
  print_type (module Spec.Rmw_register) [];
  print_type (module Spec.Fifo_queue) [];
  print_type (module Spec.Stack_type) [];
  print_type
    (module Spec.Tree_type)
    Spec.Tree_type.
      [
        [ Insert (1, 0); Insert (2, 1); Insert (3, 2) ];
        [ Insert (1, 0); Insert (2, 0); Insert (3, 0); Insert (5, 0) ];
      ];
  print_type (module Spec.Set_type) [];
  print_type (module Spec.Counter_type) [];
  print_type (module Spec.Priority_queue) [];
  print_type (module Spec.Log_type) []

(* ------------------------------------------------------------------ *)
(* Lemma 4 and baselines.                                              *)

let lemma4_and_baselines () =
  section "Lemma 4: measured per-class latency of Algorithm 1 vs formulas";
  let expected =
    [
      ( Spec.Op_kind.Pure_accessor,
        "d - X",
        Bounds.Theorems.ub_pure_accessor model ~x );
      ( Spec.Op_kind.Pure_mutator,
        "X + eps",
        Bounds.Theorems.ub_pure_mutator model ~x );
      (Spec.Op_kind.Mixed, "d + eps", Bounds.Theorems.ub_mixed model);
    ]
  in
  let module R = Core.Runtime.Make (Spec.Fifo_queue) in
  let report =
    R.run
      (R.Config.make ~check:false ~model ~offsets
         ~delay:(Sim.Net.max_delay_model model)
         ~algorithm:(R.Wtlw { x })
         ~workload:(R.Closed_loop { per_proc = 20; think = rat 1 2; seed = 3 })
         ())
  in
  List.iter
    (fun (kind, formula, bound) ->
      match List.assoc_opt kind report.by_kind with
      | None -> ()
      | Some (s : Core.Metrics.summary) ->
          Format.printf "  %-18s measured max = %-6s  %s = %-6s  %s@."
            (Spec.Op_kind.to_string kind)
            (Rat.to_string s.max) formula (Rat.to_string bound)
            (if Rat.le s.max bound then "ok" else "VIOLATION"))
    expected;
  section "Folklore baselines on the same queue workload (worst case per op)";
  let show name measured =
    Format.printf "  %-24s" name;
    List.iter
      (fun (op, v) -> Format.printf " %s=%-6s" op (Rat.to_string v))
      (List.sort compare measured);
    Format.printf "@."
  in
  let c = Lazy.force campaign in
  show "wtlw(X=3)" (max_by_op ~type_key:"queue" ~algo:`Wtlw c);
  show "centralized (<= 2d = 24)" (max_by_op ~type_key:"queue" ~algo:`Centralized c);
  show "tob (= d+eps = 15)" (max_by_op ~type_key:"queue" ~algo:`Tob c)

(* ------------------------------------------------------------------ *)
(* Clock synchronization preamble (the paper's assumed substrate).    *)

let clock_sync_section () =
  section
    "Clock synchronization preamble (Lundelius-Lynch, eps = (1 - 1/n)u)";
  let loose = Sim.Model.make ~n:model.n ~d:model.d ~u:model.u ~eps:(rat 100 1) in
  let rng = Random.State.make [| 77 |] in
  let raw =
    Array.init model.n (fun _ -> rat (Random.State.int rng 60 - 30) 1)
  in
  let result =
    Sim.Clock_sync.run ~model:loose ~offsets:raw
      ~delay:(Sim.Net.random_model ~seed:77 loose)
      ()
  in
  Format.printf "raw offsets:       ";
  Array.iter (fun c -> Format.printf " %6s" (Rat.to_string c)) raw;
  Format.printf "@.adjustments:      ";
  Array.iter (fun c -> Format.printf " %6s" (Rat.to_string c)) result.adjustments;
  Format.printf "@.adjusted offsets: ";
  Array.iter
    (fun c -> Format.printf " %6s" (Rat.to_string c))
    result.adjusted_offsets;
  Format.printf
    "@.achieved skew %s <= guaranteed (1-1/n)u = %s; model eps = %s@."
    (Rat.to_string result.achieved_skew)
    (Rat.to_string result.guaranteed_skew)
    (Rat.to_string model.eps);
  (* Bootstrap: the synchronized offsets drive Algorithm 1 at optimal
     eps. *)
  let module R = Core.Runtime.Make (Spec.Fifo_queue) in
  let report =
    R.run
      (R.Config.make ~model
         ~offsets:(Sim.Clock_sync.centered result)
         ~delay:(Sim.Net.random_model ~seed:78 model)
         ~algorithm:(R.Wtlw { x })
         ~workload:(R.Closed_loop { per_proc = 6; think = rat 1 2; seed = 78 })
         ())
  in
  Format.printf "bootstrapped Algorithm 1 run: linearizable = %b@."
    (Option.is_some report.linearization)

(* ------------------------------------------------------------------ *)
(* Parameter sweeps: the X tradeoff, tightness as n grows, and the     *)
(* eps regimes of Theorem 4.                                           *)

let sweep_section () =
  section "Sweep 1: the X tradeoff (queue, measured worst case per class)";
  (* One sweep cell per X value, X declared as a fraction of d - eps. *)
  let tradeoff =
    Sweep.run
      {
        Sweep.default_grid with
        types = [ packed "queue" ];
        algos = List.map (fun step -> Sweep.Wtlw { frac = rat step 4 }) [ 0; 1; 2; 3; 4 ];
        points = [ model ];
        delays = [ Sweep.Max_delays ];
        legs = [ Sweep.Raw ];
        seeds = [ 2 ];
        per_proc = 8;
      }
  in
  Format.printf "%-8s %14s %14s %14s@." "X" "mutator (X+eps)"
    "accessor (d-X+eps)" "mixed (d+eps)";
  Array.iteri
    (fun i (c : Sweep.cell) ->
      match tradeoff.results.(i) with
      | Sweep.Pool.Done (v : Sweep.verdict) ->
          let kind_max kind =
            match List.assoc_opt kind v.by_kind with
            | Some (s : Core.Metrics.summary) -> Rat.to_string s.max
            | None -> "-"
          in
          Format.printf "%-8s %14s %14s %14s@."
            (Rat.to_string (Sweep.resolve_x c.point c.algo))
            (kind_max Spec.Op_kind.Pure_mutator)
            (kind_max Spec.Op_kind.Pure_accessor)
            (kind_max Spec.Op_kind.Mixed)
      | Sweep.Pool.Failed msg -> Format.printf "FAILED: %s@." msg
      | Sweep.Pool.Skipped -> Format.printf "skipped@.")
    tradeoff.cells;
  section
    "Sweep 2: Theorem 3 tightness as n grows (X = 0, eps = (1-1/n)u)";
  (* One cell per model point; the sweep's point axis carries n. *)
  let growth =
    Sweep.run
      {
        Sweep.default_grid with
        types = [ packed "register" ];
        algos = [ Sweep.Wtlw { frac = Rat.zero } ];
        points =
          List.map
            (fun n -> Sim.Model.make_optimal_eps ~n ~d:(rat 12 1) ~u:(rat 4 1))
            [ 2; 3; 4; 6; 8 ];
        delays = [ Sweep.Random_delays ];
        legs = [ Sweep.Raw ];
        seeds = [ 1 ];
        per_proc = 6;
      }
  in
  Format.printf "%-4s %16s %18s %8s@." "n" "LB (1-1/n)u" "measured mutator"
    "tight?";
  Array.iteri
    (fun i (c : Sweep.cell) ->
      let lb = Bounds.Theorems.thm3_last_sensitive c.point in
      let measured =
        match growth.results.(i) with
        | Sweep.Pool.Done (v : Sweep.verdict) -> (
            match List.assoc_opt Spec.Op_kind.Pure_mutator v.by_kind with
            | Some (s : Core.Metrics.summary) -> s.max
            | None -> Rat.zero)
        | _ -> Rat.zero
      in
      Format.printf "%-4d %16s %18s %8s@." c.point.n (Rat.to_string lb)
        (Rat.to_string measured)
        (if Rat.equal lb measured then "tight" else "gap"))
    growth.cells;
  section "Sweep 3: Theorem 4 regimes (LB d+min{eps,u,d/3} vs UB d+eps)";
  Format.printf "%-26s %10s %10s %10s@." "regime" "LB" "UB" "gap";
  List.iter
    (fun (label, m) ->
      let lb = Bounds.Theorems.thm4_pair_free m in
      let ub = Bounds.Theorems.ub_mixed m in
      Format.printf "%-26s %10s %10s %10s@." label (Rat.to_string lb)
        (Rat.to_string ub)
        (Rat.to_string (Rat.sub ub lb)))
    [
      ("eps smallest (tight)", Sim.Model.make ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) ~eps:(rat 3 1));
      ("u smallest", Sim.Model.make ~n:4 ~d:(rat 30 1) ~u:(rat 2 1) ~eps:(rat 3 1));
      ("d/3 smallest", Sim.Model.make ~n:4 ~d:(rat 6 1) ~u:(rat 6 1) ~eps:(rat 5 1));
      ("eps large (loose)", Sim.Model.make ~n:4 ~d:(rat 12 1) ~u:(rat 12 1) ~eps:(rat 9 1));
    ]

(* ------------------------------------------------------------------ *)
(* Ablations: every wait in Algorithm 1 is load-bearing.               *)

let ablation_section () =
  section "Ablations: fault-injected timing variants (queue workloads)";
  let module A = Core.Ablation.Make (Spec.Fifo_queue) in
  Format.printf
    "each row: %d adversarial runs; a violation is a non-linearizable@."
    8;
  Format.printf "history or diverged replicas caught by the checker@.@.";
  List.iter
    (fun outcome -> Format.printf "  %a@." Core.Ablation.pp_outcome outcome)
    (A.report ~model ~x ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8 ]);
  Format.printf
    "@.reproduction finding: the paper-verbatim accessor wait (d - X)@.";
  Format.printf
    "admits the deterministic counterexample below; the repaired wait@.";
  Format.printf "(d - X + eps, the library default) survives it:@.";
  let describe label s =
    let o = Scenario.run s in
    Format.printf "  %-22s linearizable=%b replicas-converged=%b@." label
      o.Scenario.Exec.linearizable
      (o.Scenario.Exec.converged = Some true)
  in
  let s = Scenario.Builtin.ablation_counterexample in
  describe "paper-verbatim" s;
  describe "repaired (default)" (Scenario.with_knob s Core.Ablation.Paper)

(* ------------------------------------------------------------------ *)
(* Streaming trace pipeline: retention on vs off.                      *)

type streaming_run = {
  operations : int;
  events : int;
  messages : int;
  pending : int;
  admissible : bool;
  wall_s : float;
  minor_words : float;  (** words allocated while the engine ran *)
  live_words : int;  (** live heap at quiescence, trace still reachable *)
}

(* Drive one closed-loop queue workload on a cluster held locally, so
   the trace is still reachable when the heap is measured: with
   retention on the live set includes the full event list, with it off
   only the O(operations) sink state remains.  (Runtime.run would have
   dropped the engine — and the retained list with it — before any
   measurement could see it.) *)
let streaming_run ~retain ~per_proc ~seed () =
  let cluster =
    QAlgo.create ~retain_events:retain ~model ~x ~offsets
      ~delay:(Sim.Net.random_model ~seed model)
      ()
  in
  let engine = cluster.engine in
  let rng = Random.State.make [| seed |] in
  let remaining = Array.make model.n per_proc in
  Sim.Engine.set_response_callback engine (fun ~proc ~inv:_ ~resp:_ ~time ->
      if remaining.(proc) > 0 then begin
        remaining.(proc) <- remaining.(proc) - 1;
        Sim.Engine.schedule_invoke engine
          ~at:(Rat.add time (rat 1 2))
          ~proc (Q.gen_invocation rng)
      end);
  for proc = 0 to model.n - 1 do
    remaining.(proc) <- remaining.(proc) - 1;
    Sim.Engine.schedule_invoke engine
      ~at:(Rat.make proc (2 * model.n))
      ~proc (Q.gen_invocation rng)
  done;
  Gc.compact ();
  let baseline = (Gc.stat ()).live_words in
  let (), m =
    Perf.Measure.measure (fun () ->
        Sim.Engine.run ~max_events:10_000_000 engine)
  in
  let wall_s = float_of_int m.Perf.Measure.wall_ns /. 1e9 in
  Gc.full_major ();
  let live_words = Stdlib.max 0 ((Gc.stat ()).live_words - baseline) in
  let trace = Sim.Engine.trace engine in
  {
    operations = Sim.Trace.operation_count trace;
    events = Sim.Trace.event_count trace;
    messages = Sim.Trace.send_count trace;
    pending = Sim.Trace.pending_count trace;
    admissible = Sim.Trace.delays_admissible model trace;
    wall_s;
    minor_words = m.Perf.Measure.minor_words;
    live_words;
  }

let streaming_section () =
  section "Streaming sinks: closed-loop queue run, retention on vs off";
  let per_proc = 2000 in
  let retained = streaming_run ~retain:true ~per_proc ~seed:9 () in
  let streamed = streaming_run ~retain:false ~per_proc ~seed:9 () in
  Format.printf "%-22s %14s %14s@." "" "retained" "streaming";
  let int_row label get =
    Format.printf "%-22s %14d %14d@." label (get retained) (get streamed)
  in
  int_row "operations" (fun r -> r.operations);
  int_row "events" (fun r -> r.events);
  int_row "messages" (fun r -> r.messages);
  int_row "live words at end" (fun r -> r.live_words);
  Format.printf "%-22s %14.3f %14.3f@." "wall seconds" retained.wall_s
    streamed.wall_s;
  Format.printf "%-22s %14.1f %14.1f@." "minor words/event"
    (retained.minor_words /. float_of_int retained.events)
    (streamed.minor_words /. float_of_int streamed.events);
  Format.printf "identical snapshots: %b (ops/events/messages/admissibility)@."
    (retained.operations = streamed.operations
    && retained.events = streamed.events
    && retained.messages = streamed.messages
    && retained.admissible = streamed.admissible)

(* A small retention-off closed-loop run emitted as one line of JSON on
   stdout, for the CI bench-smoke artifact (BENCH_*.json): perf
   trajectory starts accumulating without dragging the full benchmark
   suite into CI. *)
let smoke_section () =
  let module R = Core.Runtime.Make (Spec.Fifo_queue) in
  let report, m =
    Perf.Measure.measure (fun () ->
        R.run
          (R.Config.make ~retain_events:false ~model ~offsets
             ~delay:(Sim.Net.random_model ~seed:11 model)
             ~algorithm:(R.Wtlw { x })
             ~workload:
               (R.Closed_loop { per_proc = 50; think = rat 1 2; seed = 11 })
             ()))
  in
  let wall_s = float_of_int m.Perf.Measure.wall_ns /. 1e9 in
  let linearizable = Option.is_some report.linearization in
  Printf.printf
    "{ \"bench\": \"closed-loop-queue-smoke\", \"algorithm\": \"wtlw\", \
     \"retain_events\": false, \"per_proc\": 50, \"n\": %d, \
     \"operations\": %d, \"events\": %d, \"messages\": %d, \"pending\": %d, \
     \"linearizable\": %b, \"delays_admissible\": %b, \
     \"wall_s\": %.6f, \"minor_words\": %.0f, \
     \"minor_words_per_event\": %.2f }\n"
    model.n
    (List.length report.operations)
    report.events report.messages report.pending linearizable
    report.delays_admissible wall_s m.Perf.Measure.minor_words
    (m.Perf.Measure.minor_words /. float_of_int (max 1 report.events));
  if not (linearizable && report.delays_admissible && report.pending = 0) then
    exit 1

(* ------------------------------------------------------------------ *)
(* Monitors: the O(n log n) per-type path vs the Wing-Gong DFS.        *)

(* Generated unambiguous histories (linearizable by construction), so
   both engines certify and the comparison is pure verification time.
   Wing-Gong runs only at the smallest size — its frontier memoization
   is super-linear in both time and space — while the monitor scales
   through 1M operations.  The queue is the interesting column (its
   kernel drives the full extension + lazy-scheduler machinery); the
   register is the near-trivial baseline. *)
let monitor_run (modl : (module Spec.Data_type.S)) ~wing_gong ~n () =
  let (module T : Spec.Data_type.S) = modl in
  let module M = Monitor.Make (T) in
  let ops = M.generate ~seed:7 ~n () in
  let (linearizable, label), m =
    Perf.Measure.measure (fun () ->
        if wing_gong then
          let module F = Lin.Checker.Make (T) in
          (Option.is_some (F.check ops), "wing-gong")
        else
          let r = M.check ops in
          (r.M.linearizable, Monitor.method_to_string r.M.method_))
  in
  (linearizable, label, float_of_int m.Perf.Measure.wall_ns /. 1e9)

let monitor_section () =
  section "Monitors: specialized O(n log n) kernels vs the Wing-Gong DFS";
  Format.printf "%-14s %10s %-22s %12s %6s@." "type" "ops" "engine" "wall"
    "ok";
  let row name modl ~wing_gong ~n =
    let ok, label, wall_s = monitor_run modl ~wing_gong ~n () in
    Format.printf "%-14s %10d %-22s %10.3fs %6b@." name n label wall_s ok
  in
  List.iter
    (fun (name, modl) ->
      row name modl ~wing_gong:true ~n:1_000;
      List.iter
        (fun n -> row name modl ~wing_gong:false ~n)
        [ 1_000; 10_000; 100_000; 1_000_000 ])
    [
      ("queue", (module Spec.Fifo_queue : Spec.Data_type.S));
      ("register", (module Spec.Register : Spec.Data_type.S));
    ]

(* ------------------------------------------------------------------ *)
(* Sweep engine: the campaign grid on 1 domain vs N domains.           *)

let sweep_engine_section () =
  section "Sweep engine: campaign grid, 1 domain vs N domains";
  let t1 = Lazy.force campaign in
  let jobs = Stdlib.max 2 (Stdlib.min 4 (Domain.recommended_domain_count ())) in
  let tn = Sweep.run ~jobs bench_grid in
  let show label (t : Sweep.t) =
    let done_, certified, failed, skipped = Sweep.counts t in
    Format.printf
      "  jobs=%-2d (%-9s)  %d cells: %d done (%d certified), %d failed, %d skipped  wall %.3fs@."
      t.jobs label (Array.length t.cells) done_ certified failed skipped
      t.wall_s
  in
  show "1 domain" t1;
  show "N domains" tn;
  Format.printf "  verdicts byte-identical across domain counts: %b@."
    (String.equal (Sweep.fingerprint t1) (Sweep.fingerprint tn))

(* ------------------------------------------------------------------ *)
(* Robustness: the fault-injection matrix (nemesis x recovery).        *)

let robustness_section () =
  section "Robustness: fault-injection matrix, raw vs reliable channel";
  Format.printf
    "each case twice: raw (the damage must be flagged) and over the@.";
  Format.printf
    "ack/retransmit channel against d' = d + k*rto (must linearize)@.@.";
  let cells = Sweep.robustness ~jobs:2 ~model ~x ~seed:1 [ packed "queue" ] in
  Format.printf "%a@." Core.Robustness.pp_matrix cells

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one per table.                            *)

let bechamel_section () =
  section "Bechamel microbenchmarks (wall-clock per regenerated workload)";
  let open Bechamel in
  let open Toolkit in
  let run_workload (module T : Spec.Data_type.S) () =
    let module R = Core.Runtime.Make (T) in
    let report =
      R.run
        (R.Config.make ~check:false ~model ~offsets
           ~delay:(Sim.Net.random_model ~seed:5 model)
           ~algorithm:(R.Wtlw { x })
           ~workload:(R.Closed_loop { per_proc = 6; think = rat 1 2; seed = 5 })
           ())
    in
    ignore report.R.by_kind
  in
  let module RQ = Core.Runtime.Make (Spec.Fifo_queue) in
  let run_algorithm algorithm () =
    let report =
      RQ.run
        (RQ.Config.make ~check:false ~model ~offsets
           ~delay:(Sim.Net.random_model ~seed:5 model)
           ~algorithm
           ~workload:(RQ.Closed_loop { per_proc = 6; think = rat 1 2; seed = 5 })
           ())
    in
    ignore report.RQ.by_kind
  in
  (* The sharded load pipeline end to end: generate, route, run two
     clusters inline, certify per key, merge histograms. *)
  let run_load () =
    let module Sh = Shard.Make (Spec.Fifo_queue) in
    let t =
      Sh.run
        (Shard.Config.make ~keys:16 ~zipf:0.8 ~seed:5 ~shards:2 ~ops:400
           ~arrival:(Core.Workload.Poisson { rate = rat 1 4 })
           ~model
           ~algorithm:(Core.Runtime.Wtlw { x })
           ())
    in
    assert t.Shard.certified
  in
  let tests =
    Test.make_grouped ~name:"bench"
      [
        Test.make ~name:"table1-rmw-register"
          (Staged.stage (run_workload (module Spec.Rmw_register)));
        Test.make ~name:"table2-queue"
          (Staged.stage (run_workload (module Spec.Fifo_queue)));
        Test.make ~name:"table3-stack"
          (Staged.stage (run_workload (module Spec.Stack_type)));
        Test.make ~name:"table4-tree"
          (Staged.stage (run_workload (module Spec.Tree_type)));
        Test.make ~name:"table5-summary-register"
          (Staged.stage (run_workload (module Spec.Register)));
        Test.make ~name:"algo-wtlw"
          (Staged.stage (run_algorithm (RQ.Wtlw { x })));
        Test.make ~name:"algo-centralized"
          (Staged.stage (run_algorithm RQ.Centralized));
        Test.make ~name:"algo-tob" (Staged.stage (run_algorithm RQ.Tob));
        Test.make ~name:"load-sharded" (Staged.stage run_load);
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort compare
  in
  Format.printf "%-28s %16s %10s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, result) ->
      let time =
        match Analyze.OLS.estimates result with
        | Some [ t ] -> Printf.sprintf "%.0f ns" t
        | _ -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      Format.printf "%-28s %16s %10s@." name time r2)
    rows

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  if what = "smoke" then begin
    (* JSON only, machine-readable: used by the CI bench-smoke step. *)
    smoke_section ();
    exit 0
  end;
  let want s = what = "all" || what = s in
  if want "tables" then run_tables ();
  if want "figures" then begin
    figure1 ();
    figure3_and_9 ();
    figure_matrices ();
    figure11 ()
  end;
  if want "lemma4" then lemma4_and_baselines ();
  if want "sync" then clock_sync_section ();
  if want "sweeps" then sweep_section ();
  if want "streaming" then streaming_section ();
  if want "ablations" then ablation_section ();
  if want "sweep" then sweep_engine_section ();
  if want "monitor" then monitor_section ();
  if want "robustness" then robustness_section ();
  if want "bechamel" then bechamel_section ();
  Format.printf "@.bench done (%s)@." what
