(* Tests for the robustness matrix: full certification on a register,
   JSON enumeration of every cell, and the step-limit truncation path
   of the runtime (a truncated run is a partial report, not an
   exception). *)

let rat = Rat.make
let model = Sim.Model.make ~n:3 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 1 1)
let x = rat 5 1
let seed = 7

module R = Core.Runtime.Make (Spec.Register)

(* The register's row of the matrix: every nemesis case, run inline.
   (Pool-size independence is covered by test_sweep.) *)
let run_matrix () =
  Sweep.robustness ~model ~x ~seed
    [ Option.get (Sweep.Packed_type.find "register") ]

let matrix = lazy (run_matrix ())

let test_matrix_certified () =
  let cells = Lazy.force matrix in
  Alcotest.(check int) "six nemesis cases" 6 (List.length cells);
  List.iter
    (fun (c : Core.Robustness.cell) ->
      Alcotest.(check bool) (c.case ^ " certified") true c.certified)
    cells;
  Alcotest.(check bool) "aggregate verdict" true
    (Core.Robustness.all_certified cells)

let test_matrix_verdict_shape () =
  let cells = Lazy.force matrix in
  List.iter
    (fun (c : Core.Robustness.cell) ->
      match c.expectation with
      | Core.Robustness.Recover ->
          Alcotest.(check bool) (c.case ^ ": recovered leg ok") true
            c.recovered.ok
      | Core.Robustness.Detect ->
          Alcotest.(check bool) (c.case ^ ": raw leg flagged") true
            c.raw.flagged)
    cells

let test_matrix_deterministic () =
  let fingerprints cells =
    List.map
      (fun (c : Core.Robustness.cell) ->
        (c.case, c.certified, c.raw.faults, c.recovered.retransmits))
      cells
  in
  Alcotest.(check bool) "same seed, same matrix" true
    (fingerprints (Lazy.force matrix) = fingerprints (run_matrix ()))

let test_empty_matrix_not_certified () =
  Alcotest.(check bool) "vacuous certification rejected" false
    (Core.Robustness.all_certified [])

let test_json_enumerates_every_cell () =
  let cells = Lazy.force matrix in
  let json = Format.asprintf "%a" Core.Robustness.pp_json cells in
  let contains needle =
    let nlen = String.length needle and jlen = String.length json in
    let rec at i =
      i + nlen <= jlen && (String.sub json i nlen = needle || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun (c : Core.Robustness.cell) ->
      Alcotest.(check bool) ("cell " ^ c.case ^ " present") true
        (contains (Printf.sprintf "\"case\":\"%s\"" c.case)))
    cells;
  Alcotest.(check bool) "cell count present" true
    (contains (Printf.sprintf "\"cells\":%d" (List.length cells)));
  Alcotest.(check bool) "aggregate verdict present" true
    (contains "\"certified\":true")

(* Satellite regression: exceeding the step limit yields a partial
   report flagged [truncated], never an escaped exception. *)
let test_truncation_is_a_report () =
  let report =
    R.run
      (R.Config.make ~max_events:40 ~model
         ~offsets:(Array.make 3 Rat.zero)
         ~delay:(Sim.Net.random_model ~seed model)
         ~algorithm:(R.Wtlw { x })
         ~workload:(R.Closed_loop { per_proc = 5; think = Rat.make 1 2; seed })
         ())
  in
  Alcotest.(check bool) "truncated" true report.truncated;
  Alcotest.(check bool) "not ok" false (R.ok report)

let test_untruncated_run_is_clean () =
  let report =
    R.run
      (R.Config.make ~max_events:500_000 ~model
         ~offsets:(Array.make 3 Rat.zero)
         ~delay:(Sim.Net.random_model ~seed model)
         ~algorithm:(R.Wtlw { x })
         ~workload:(R.Closed_loop { per_proc = 3; think = Rat.make 1 2; seed })
         ())
  in
  Alcotest.(check bool) "not truncated" false report.truncated;
  Alcotest.(check bool) "ok" true (R.ok report)

let () =
  Alcotest.run "robustness"
    [
      ( "matrix",
        [
          Alcotest.test_case "all cells certified" `Quick test_matrix_certified;
          Alcotest.test_case "verdict shape per expectation" `Quick
            test_matrix_verdict_shape;
          Alcotest.test_case "deterministic in the seed" `Quick
            test_matrix_deterministic;
          Alcotest.test_case "empty matrix not certified" `Quick
            test_empty_matrix_not_certified;
          Alcotest.test_case "JSON enumerates every cell" `Quick
            test_json_enumerates_every_cell;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "step limit yields partial report" `Quick
            test_truncation_is_a_report;
          Alcotest.test_case "clean run is untruncated" `Quick
            test_untruncated_run_is_clean;
        ] );
    ]
