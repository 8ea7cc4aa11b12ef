(* Unit and property tests for exact rational arithmetic. *)

let rat = Rat.make
let check_rat = Alcotest.testable Rat.pp Rat.equal
let eq msg a b = Alcotest.check check_rat msg a b

let test_normalization () =
  eq "6/4 = 3/2" (rat 3 2) (rat 6 4);
  eq "-6/-4 = 3/2" (rat 3 2) (rat (-6) (-4));
  eq "6/-4 = -3/2" (rat (-3) 2) (rat 6 (-4));
  eq "0/5 = 0" Rat.zero (rat 0 5);
  Alcotest.(check int) "num of 6/4" 3 (Rat.num (rat 6 4));
  Alcotest.(check int) "den of 6/4" 2 (Rat.den (rat 6 4));
  Alcotest.(check int) "den always positive" 2 (Rat.den (rat 1 (-2)));
  Alcotest.(check int) "num carries sign" (-1) (Rat.num (rat 1 (-2)))

let test_zero_denominator () =
  Alcotest.check_raises "make x 0 raises" Division_by_zero (fun () ->
      ignore (rat 1 0))

let test_arithmetic () =
  eq "1/2 + 1/3 = 5/6" (rat 5 6) (Rat.add (rat 1 2) (rat 1 3));
  eq "1/2 - 1/3 = 1/6" (rat 1 6) (Rat.sub (rat 1 2) (rat 1 3));
  eq "2/3 * 3/4 = 1/2" (rat 1 2) (Rat.mul (rat 2 3) (rat 3 4));
  eq "(1/2) / (1/4) = 2" (rat 2 1) (Rat.div (rat 1 2) (rat 1 4));
  eq "neg 1/2 = -1/2" (rat (-1) 2) (Rat.neg (rat 1 2));
  eq "abs -1/2 = 1/2" (rat 1 2) (Rat.abs (rat (-1) 2));
  eq "3/2 * 4 = 6" (rat 6 1) (Rat.mul_int (rat 3 2) 4);
  eq "3/2 / 3 = 1/2" (rat 1 2) (Rat.div_int (rat 3 2) 3);
  Alcotest.check_raises "div by zero rational" Division_by_zero (fun () ->
      ignore (Rat.div Rat.one Rat.zero));
  Alcotest.check_raises "div_int by zero" Division_by_zero (fun () ->
      ignore (Rat.div_int Rat.one 0))

let test_comparisons () =
  Alcotest.(check bool) "1/3 < 1/2" true (Rat.lt (rat 1 3) (rat 1 2));
  Alcotest.(check bool) "-1/2 < 1/3" true (Rat.lt (rat (-1) 2) (rat 1 3));
  Alcotest.(check bool) "2/4 = 1/2" true (Rat.equal (rat 2 4) (rat 1 2));
  Alcotest.(check bool) "le reflexive" true (Rat.le (rat 7 3) (rat 7 3));
  Alcotest.(check int) "sign of -3/4" (-1) (Rat.sign (rat (-3) 4));
  Alcotest.(check int) "sign of 0" 0 (Rat.sign Rat.zero);
  eq "min" (rat 1 3) (Rat.min (rat 1 3) (rat 1 2));
  eq "max" (rat 1 2) (Rat.max (rat 1 3) (rat 1 2))

let test_range () =
  let lo = rat 1 2 and hi = rat 3 2 in
  Alcotest.(check bool) "1 in [1/2,3/2]" true (Rat.in_range ~lo ~hi Rat.one);
  Alcotest.(check bool) "bounds included" true
    (Rat.in_range ~lo ~hi lo && Rat.in_range ~lo ~hi hi);
  Alcotest.(check bool) "2 not in range" false (Rat.in_range ~lo ~hi (rat 2 1));
  eq "clamp below" lo (Rat.clamp ~lo ~hi Rat.zero);
  eq "clamp above" hi (Rat.clamp ~lo ~hi (rat 5 1));
  eq "clamp inside" Rat.one (Rat.clamp ~lo ~hi Rat.one);
  Alcotest.check_raises "clamp lo>hi" (Invalid_argument "Rat.clamp: lo > hi")
    (fun () -> ignore (Rat.clamp ~lo:hi ~hi:lo Rat.one))

let test_aggregates () =
  eq "sum" (rat 11 6) (Rat.sum [ rat 1 2; rat 1 3; Rat.one ]);
  eq "sum empty" Rat.zero (Rat.sum []);
  eq "min_list" (rat (-1) 2) (Rat.min_list [ Rat.one; rat (-1) 2; rat 1 3 ]);
  eq "max_list" Rat.one (Rat.max_list [ Rat.one; rat (-1) 2; rat 1 3 ]);
  Alcotest.check_raises "min_list empty"
    (Invalid_argument "Rat.min_list: empty list") (fun () ->
      ignore (Rat.min_list []))

let test_printing () =
  Alcotest.(check string) "integer prints bare" "7" (Rat.to_string (rat 7 1));
  Alcotest.(check string) "fraction prints num/den" "7/3"
    (Rat.to_string (rat 7 3));
  Alcotest.(check string) "negative" "-7/3" (Rat.to_string (rat 7 (-3)));
  Alcotest.(check (float 1e-9)) "to_float" 2.5 (Rat.to_float (rat 5 2))

let test_infix () =
  let open Rat.Infix in
  Alcotest.(check bool) "infix ops" true
    (rat 1 2 + rat 1 3 = rat 5 6
    && rat 1 2 - rat 1 3 = rat 1 6
    && rat 1 2 * rat 2 3 = rat 1 3
    && rat 1 2 / rat 1 4 = rat 2 1
    && rat 1 3 < rat 1 2
    && rat 1 2 <= rat 1 2
    && rat 1 2 > rat 1 3
    && rat 1 2 >= rat 1 2
    && rat 1 2 <> rat 1 3
    && ~-(rat 1 2) = rat (-1) 2)

(* Overflow behaviour: arithmetic on adversarially large numerators and
   denominators must raise Overflow instead of silently wrapping, gcd
   pre-reduction must let representable results through, and comparison
   must stay exact (continued-fraction fallback) where the cross
   products would wrap. *)
let test_overflow_raises () =
  let big = 1 lsl 61 in
  (* 2^61/3 + 2^61/5: common denominator 15, numerator 8 * 2^61 wraps. *)
  Alcotest.check_raises "add overflows" Rat.Overflow (fun () ->
      ignore (Rat.add (rat big 3) (rat big 5)));
  Alcotest.check_raises "sub overflows" Rat.Overflow (fun () ->
      ignore (Rat.sub (rat big 3) (rat (-big) 5)));
  (* (2^61/3) * (5/7): numerator 5 * 2^61 wraps, no gcd to save it. *)
  Alcotest.check_raises "mul overflows" Rat.Overflow (fun () ->
      ignore (Rat.mul (rat big 3) (rat 5 7)));
  Alcotest.check_raises "div overflows" Rat.Overflow (fun () ->
      ignore (Rat.div (rat big 3) (rat 7 5)));
  Alcotest.check_raises "mul_int overflows" Rat.Overflow (fun () ->
      ignore (Rat.mul_int (rat big 3) 5));
  Alcotest.check_raises "div_int overflows" Rat.Overflow (fun () ->
      ignore (Rat.div_int (rat 3 big) 5))

let test_overflow_reduction_saves () =
  let big = 1 lsl 40 in
  (* (2^40/3) * (3/2^40) = 1: raw cross products wrap, but gcd
     pre-reduction cancels everything. *)
  eq "reduction rescues mul" Rat.one (Rat.mul (rat big 3) (rat 3 big));
  eq "reduction rescues div" Rat.one (Rat.div (rat big 3) (rat big 3));
  (* x + (1 - x) over a huge common denominator: lcm = den, no wrap. *)
  eq "shared denominator add" Rat.one
    (Rat.add (rat 1 big) (rat (big - 1) big));
  eq "mul_int cancels" (Rat.of_int 3) (Rat.mul_int (rat 3 big) big)

let test_compare_near_overflow () =
  let big = 1 lsl 61 in
  (* (2^61+1)/2^61 > 2^61/(2^61-1) is FALSE: 1 + 1/2^61 vs
     1 + 1/(2^61-1).  Cross products wrap; the fallback must get the
     exact answer. *)
  Alcotest.(check bool) "tight fractions ordered exactly" true
    (Rat.lt (rat (big + 1) big) (rat big (big - 1)));
  Alcotest.(check bool) "reflexive at scale" true
    (Rat.equal (rat (big + 1) big) (rat (big + 1) big));
  Alcotest.(check bool) "sign split" true
    (Rat.lt (rat (-big - 1) big) (rat big (big - 1)));
  Alcotest.(check bool) "negative pair ordered" true
    (Rat.lt (rat (-big) (big - 1)) (rat (-big - 1) big));
  (* min/max never raise even where arithmetic would. *)
  eq "max at scale" (rat big (big - 1))
    (Rat.max (rat (big + 1) big) (rat big (big - 1)))

(* The [min_int] boundary: [-min_int] does not exist, so every sign
   normalization that would need it must raise [Overflow] rather than
   silently wrap to a negative "absolute value". *)
let test_min_int_boundaries () =
  let mi = min_int in
  Alcotest.check_raises "neg min_int raises" Rat.Overflow (fun () ->
      ignore (Rat.neg (Rat.of_int mi)));
  Alcotest.check_raises "abs min_int raises" Rat.Overflow (fun () ->
      ignore (Rat.abs (Rat.of_int mi)));
  Alcotest.check_raises "make min_int -1 raises" Rat.Overflow (fun () ->
      ignore (rat mi (-1)));
  Alcotest.check_raises "neg min_int/3 raises" Rat.Overflow (fun () ->
      ignore (Rat.neg (rat mi 3)));
  Alcotest.check_raises "abs min_int/3 raises" Rat.Overflow (fun () ->
      ignore (Rat.abs (rat mi 3)));
  (* Sign normalization of min_int over a negative denominator: an even
     denominator reduces first and survives; an odd one cannot. *)
  eq "min_int/-2 = 2^61" (rat (1 lsl 61) 1) (rat mi (-2));
  Alcotest.check_raises "make min_int -3 raises" Rat.Overflow (fun () ->
      ignore (rat mi (-3)));
  (* gcd(|min_int|, |min_int|) = 2^62 is unrepresentable; the value is
     known directly. *)
  eq "min_int/min_int = 1" Rat.one (rat mi mi);
  eq "div min_int by itself" Rat.one
    (Rat.div (Rat.of_int mi) (Rat.of_int mi));
  eq "div_int min_int by min_int" Rat.one (Rat.div_int (Rat.of_int mi) mi);
  (* One step inside the boundary everything works. *)
  eq "neg (min_int+1) = max_int" (Rat.of_int max_int)
    (Rat.neg (Rat.of_int (mi + 1)));
  eq "abs (min_int+1) = max_int" (Rat.of_int max_int)
    (Rat.abs (Rat.of_int (mi + 1)));
  Alcotest.(check int) "min_int itself is representable" mi
    (Rat.num (Rat.of_int mi));
  (* Comparison never negates a numerator, so min_int is fine on
     either side (the old sign-split fallback wrapped here). *)
  Alcotest.(check bool) "min_int/3 < min_int/5" true
    (Rat.lt (rat mi 3) (rat mi 5));
  Alcotest.(check bool) "min_int/3 < -1/3" true
    (Rat.lt (rat mi 3) (rat (-1) 3));
  Alcotest.(check bool) "min_int < min_int+1" true
    (Rat.lt (Rat.of_int mi) (Rat.of_int (mi + 1)));
  (* Fast-compare cutoff (operand magnitude 2^30): adjacent fractions
     order exactly on both sides of it. *)
  let c = 1 lsl 30 in
  Alcotest.(check bool) "just below fast-compare cutoff" true
    (Rat.lt (rat (c - 2) (c - 1)) (rat (c - 1) c));
  Alcotest.(check bool) "just above fast-compare cutoff" true
    (Rat.lt (rat (c + 1) (c + 2)) (rat (c + 2) (c + 3)))

(* Integer-valued rationals ride the unboxed fast path; their
   arithmetic must agree with [make] and machine comparison. *)
let test_int_fast_path () =
  Alcotest.(check int) "of_int has den 1" 1 (Rat.den (Rat.of_int 7));
  eq "add" (rat 12 1) (Rat.add (Rat.of_int 5) (Rat.of_int 7));
  eq "mixed add promotes" (rat 11 2) (Rat.add (Rat.of_int 5) (rat 1 2));
  eq "mixed mul reduces" (rat 5 2) (Rat.mul (Rat.of_int 5) (rat 1 2));
  eq "int div yields fraction" (rat 5 7)
    (Rat.div (Rat.of_int 5) (Rat.of_int 7));
  Alcotest.check_raises "int add still checks overflow" Rat.Overflow
    (fun () -> ignore (Rat.add (Rat.of_int max_int) Rat.one));
  Alcotest.check_raises "int mul still checks overflow" Rat.Overflow
    (fun () -> ignore (Rat.mul (Rat.of_int max_int) (Rat.of_int 2)))

(* Property tests: rationals with small components form a totally
   ordered field (no overflow at these scales). *)
let arb_rat =
  QCheck.map
    (fun (n, d) -> Rat.make n (1 + abs d))
    QCheck.(pair (int_range (-1000) 1000) (int_range 0 60))

let prop name count law = QCheck.Test.make ~name ~count law

let properties =
  [
    prop "add commutative" 500
      QCheck.(pair arb_rat arb_rat)
      (fun (a, b) -> Rat.equal (Rat.add a b) (Rat.add b a));
    prop "add associative" 500
      QCheck.(triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) ->
        Rat.equal (Rat.add a (Rat.add b c)) (Rat.add (Rat.add a b) c));
    prop "mul distributes over add" 500
      QCheck.(triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) ->
        Rat.equal
          (Rat.mul a (Rat.add b c))
          (Rat.add (Rat.mul a b) (Rat.mul a c)));
    prop "sub inverse of add" 500
      QCheck.(pair arb_rat arb_rat)
      (fun (a, b) -> Rat.equal (Rat.sub (Rat.add a b) b) a);
    prop "div inverse of mul (nonzero)" 500
      QCheck.(pair arb_rat arb_rat)
      (fun (a, b) ->
        QCheck.assume (not (Rat.is_zero b));
        Rat.equal (Rat.div (Rat.mul a b) b) a);
    prop "compare total order: antisymmetry" 500
      QCheck.(pair arb_rat arb_rat)
      (fun (a, b) ->
        let c1 = Rat.compare a b and c2 = Rat.compare b a in
        (c1 = 0 && c2 = 0) || c1 * c2 < 0);
    prop "compare transitive" 500
      QCheck.(triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) ->
        let sorted = List.sort Rat.compare [ a; b; c ] in
        match sorted with
        | [ x; y; z ] -> Rat.le x y && Rat.le y z
        | _ -> false);
    prop "to_float monotone" 500
      QCheck.(pair arb_rat arb_rat)
      (fun (a, b) ->
        QCheck.assume (Rat.lt a b);
        Rat.to_float a <= Rat.to_float b);
    prop "normalization: gcd(num, den) = 1" 500 arb_rat (fun a ->
        let rec gcd x y = if y = 0 then x else gcd y (x mod y) in
        gcd (abs (Rat.num a)) (Rat.den a) = 1 || Rat.is_zero a);
    prop "equal iff compare 0" 500
      QCheck.(pair arb_rat arb_rat)
      (fun (a, b) -> Rat.equal a b = (Rat.compare a b = 0));
    prop "hash consistent with equality" 500
      QCheck.(pair (pair (int_range (-50) 50) (int_range 1 20)) (int_range 1 5))
      (fun ((n, d), k) ->
        (* a and its unreduced form k*n / k*d are equal, so must hash
           equally (normalization guarantees it). *)
        Rat.hash (Rat.make n d) = Rat.hash (Rat.make (k * n) (k * d)));
    prop "immediate arithmetic agrees with make" 500
      QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
      (fun (a, b) ->
        Rat.equal (Rat.add (Rat.of_int a) (Rat.of_int b)) (rat (a + b) 1)
        && Rat.equal (Rat.sub (Rat.of_int a) (Rat.of_int b)) (rat (a - b) 1)
        && Rat.equal (Rat.mul (Rat.of_int a) (Rat.of_int b)) (rat (a * b) 1)
        && (b = 0
           || Rat.equal (Rat.div (Rat.of_int a) (Rat.of_int b)) (rat a b))
        && Rat.compare (Rat.of_int a) (Rat.of_int b) = Int.compare a b);
    prop "zero operand returns the other operand itself" 500 arb_rat
      (fun x ->
        (* The general path: a/b + 0/1 over the common denominator b. *)
        let cross op = rat (op (Rat.num x * 1) (0 * Rat.den x)) (Rat.den x) in
        Rat.add x Rat.zero == x
        && Rat.add Rat.zero x == x
        && Rat.sub x Rat.zero == x
        && Rat.equal (Rat.add x Rat.zero) (cross ( + ))
        && Rat.equal (Rat.sub x Rat.zero) (cross ( - ))
        && Rat.equal (Rat.sub Rat.zero x) (Rat.neg x));
    prop "mixed immediate/frac arithmetic consistent" 500
      QCheck.(
        pair (int_range (-100) 100)
          (pair (int_range (-100) 100) (int_range 2 30)))
      (fun (a, (n, d)) ->
        let f = rat n d in
        Rat.equal (Rat.add (Rat.of_int a) f) (rat ((a * d) + n) d)
        && Rat.equal (Rat.sub (Rat.of_int a) f) (rat ((a * d) - n) d)
        && Rat.equal (Rat.mul (Rat.of_int a) f) (rat (a * n) d));
  ]

let () =
  Alcotest.run "rat"
    [
      ( "unit",
        [
          Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "zero denominator" `Quick test_zero_denominator;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "range and clamp" `Quick test_range;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "printing" `Quick test_printing;
          Alcotest.test_case "infix" `Quick test_infix;
          Alcotest.test_case "overflow raises" `Quick test_overflow_raises;
          Alcotest.test_case "gcd reduction avoids overflow" `Quick
            test_overflow_reduction_saves;
          Alcotest.test_case "comparison exact near overflow" `Quick
            test_compare_near_overflow;
          Alcotest.test_case "min_int boundaries" `Quick
            test_min_int_boundaries;
          Alcotest.test_case "integer fast path" `Quick test_int_fast_path;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest properties);
    ]
