(* Ablation tests: each of Algorithm 1's waits is load-bearing — the
   fault-injected variants produce machine-checked linearizability
   violations or replica divergence, while the repaired default never
   does.  Includes the reproduction finding: the paper's verbatim
   accessor wait (d - X) admits a non-linearizable run. *)

let rat = Rat.make
let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1)
let x = rat 3 1
let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

module Q = Spec.Fifo_queue
module A = Core.Ablation.Make (Q)

let evaluate knob = A.evaluate ~model ~x ~seeds knob

let test_control_sound () =
  let outcome = evaluate Core.Ablation.Paper in
  Alcotest.(check bool) "repaired default: all runs sound" true
    (Core.Ablation.sound outcome);
  Alcotest.(check int) "zero violations" 0 (Core.Ablation.violations outcome)

let expect_violation name knob =
  let outcome = evaluate knob in
  Alcotest.(check bool)
    (name ^ ": at least one violation caught")
    true
    (Core.Ablation.violations outcome > 0)

let test_no_execute_wait_caught () =
  expect_violation "no-execute-wait" Core.Ablation.No_execute_wait

let test_no_add_wait_caught () =
  expect_violation "no-add-wait" Core.Ablation.No_add_wait

let test_eager_accessor_caught () =
  expect_violation "eager accessor"
    (Core.Ablation.Eager_accessor (Rat.div_int (Rat.sub model.d x) 4))

(* The reproduction finding as scenario data ([Scenario.Builtin]): the
   paper's exact pseudocode produces a divergent, non-linearizable
   admissible run; flipping the knob to the repaired timing certifies
   the identical schedule. *)
let expect_counterexample (s : Scenario.t) =
  let paper = Scenario.run s in
  Alcotest.(check bool)
    (s.Scenario.name ^ ": verbatim run fails certification")
    false paper.Scenario.Exec.certified;
  Alcotest.(check (option bool))
    (s.Scenario.name ^ ": replicas diverge")
    (Some false) paper.Scenario.Exec.converged;
  let repaired =
    Scenario.run (Scenario.with_knob s Core.Ablation.Paper)
  in
  Alcotest.(check bool)
    (s.Scenario.name ^ ": repaired timing certifies")
    true repaired.Scenario.Exec.certified;
  Alcotest.(check (option bool))
    (s.Scenario.name ^ ": repaired replicas converge")
    (Some true) repaired.Scenario.Exec.converged

let test_paper_verbatim_counterexample () =
  expect_counterexample Scenario.Builtin.ablation_counterexample

(* The same counterexample expressed on the register (write/read):
   writes overwrite, so the replicas end up diverged, and sequential
   reads at different processes conflict. *)
let test_paper_verbatim_register () =
  expect_counterexample Scenario.Builtin.ablation_register

let test_report_shape () =
  let report = A.report ~model ~x ~seeds:[ 1; 2 ] in
  Alcotest.(check int) "seven knobs" 7 (List.length report);
  (* First knob is the control and must be sound. *)
  Alcotest.(check bool) "control first and sound" true
    (Core.Ablation.sound (List.hd report));
  List.iter
    (fun (o : Core.Ablation.outcome) ->
      Alcotest.(check int) "runs counted" 2 o.runs)
    report

(* The short-execute-wait variant degrades gracefully as the wait
   approaches the correct u + eps: with the full wait it is sound. *)
let test_execute_wait_boundary () =
  let full = Rat.add model.u model.eps in
  let outcome = evaluate (Core.Ablation.Short_execute_wait full) in
  Alcotest.(check bool) "full execute wait sound" true
    (Core.Ablation.sound outcome)

let () =
  Alcotest.run "ablation"
    [
      ( "knobs",
        [
          Alcotest.test_case "control sound" `Quick test_control_sound;
          Alcotest.test_case "no execute wait caught" `Quick
            test_no_execute_wait_caught;
          Alcotest.test_case "no add wait caught" `Quick
            test_no_add_wait_caught;
          Alcotest.test_case "eager accessor caught" `Quick
            test_eager_accessor_caught;
          Alcotest.test_case "execute wait boundary" `Quick
            test_execute_wait_boundary;
          Alcotest.test_case "report shape" `Quick test_report_shape;
        ] );
      ( "paper finding",
        [
          Alcotest.test_case "queue counterexample" `Quick
            test_paper_verbatim_counterexample;
          Alcotest.test_case "register counterexample" `Quick
            test_paper_verbatim_register;
        ] );
    ]
