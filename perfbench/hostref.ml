(* A fixed reference computation that measures how fast the host runs
   right now.

   The benchmark runs on a few cores of a shared host whose speed
   changes from second to second and from run to run as other tenants
   load it.  Timing this pass next to each measured interval lets the
   benchmark express its times in host-independent units: an interval
   that took [dt] while a pass took [r] is reported as
   [dt *. nominal_s /. r], the time it would have taken on a host where
   the pass takes [nominal_s].

   The pass uses only the standard library, never the code under test,
   so a change to the repository cannot speed it up.  It does random
   reads and writes over a working set larger than a core's private
   caches, with integer arithmetic between them.  It allocates nothing
   on the OCaml heap, so its time does not depend on the measured
   program's heap, and it runs on the calling domain only, so it does
   not depend on where the runtime places other domains. *)

(* One pass takes about this long on the development container
   (2 vCPU x86_64, OCaml 5.1.1). *)
let nominal_s = 0.1
let words = 1 lsl 19 (* 4 MiB *)
let steps = 22_000_000

(* The working set, allocated once so that passes differ only in the
   host's speed.  It lives outside the OCaml heap: live heap data would
   let the collector grow the measured program's heap in proportion,
   and move its peak RSS. *)
let arena =
  let a = Bigarray.(Array1.create int c_layout words) in
  Bigarray.Array1.fill a 0;
  a

(* Seconds one pass takes. *)
let time () =
  let t0 = Span.now () in
  let mask = words - 1 in
  let x = ref 0x2545f491 in
  for i = 1 to steps do
    (* a linear congruential step; its high bits index the arena *)
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = (!x lsr 10) land mask in
    Bigarray.Array1.unsafe_set arena j
      ((Bigarray.Array1.unsafe_get arena j + i) lxor (!x land 7))
  done;
  Span.now () -. t0

(* Keep two cores busy for [seconds] of integer arithmetic.  A core that
   was idle runs two to three times slower for its first second or two
   of work, and the reference pass, on one core, does not see a second
   core that is still cold; so every run warms both before it times
   anything. *)
let warm_up ~seconds =
  let deadline = Span.now () +. seconds in
  let spin () =
    let x = ref 1 in
    while Span.now () < deadline do
      for _ = 1 to 100_000 do
        x := ((!x * 1103515245) + 12345) land 0x3fffffff
      done
    done;
    ignore (Sys.opaque_identity !x)
  in
  let other = Domain.spawn spin in
  spin ();
  Domain.join other
