(* Register monitor: O(n log n) decrease-and-conquer over an
   unambiguous history of writes ([Put v], each value at most once) and
   reads ([Peek (Some v)]).

   Rejections are backed by necessary conditions:
   - [register.fresh]       a read of a value never written (and not the
                            initial value 0);
   - [register.before-write] a read returning [v] entirely before the
                            write of [v];
   - [register.stale]       a read returning [v] although some other
                            write is forced strictly between the write
                            of [v] and the read — the register provably
                            no longer holds [v].

   The stale scan sorts writes by invocation and keeps a suffix minimum
   of response times: a read of [v] is stale iff the earliest-finishing
   write invoked after [finish(write v)] finishes before the read
   starts.  Reads of the initial value 0 use a virtual write preceding
   everything.

   Acceptance is certificate-backed: writes ordered by response time,
   each followed by its reads (by response time), form a candidate
   linearization that the dispatcher re-verifies by replay and a
   real-time sweep. *)

module V = Spec.Adt_view

let kind = V.Register

let check (records : Record.t array) : Record.outcome =
  let writes : (int, Record.t) Hashtbl.t = Hashtbl.create 97 in
  let reads : (int, Record.t list) Hashtbl.t = Hashtbl.create 97 in
  let bad = ref None in
  let flag o = if !bad = None then bad := Some o in
  Array.iter
    (fun (r : Record.t) ->
      match r.obs with
      | V.Put v -> (
          match Hashtbl.find_opt writes v with
          | Some _ ->
              flag
                (Record.Unknown
                   (Printf.sprintf "value %d written twice; ambiguous" v))
          | None -> Hashtbl.add writes v r)
      | V.Peek (Some v) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt reads v) in
          Hashtbl.replace reads v (r :: prev)
      | _ ->
          flag
            (Record.Unknown
               (Printf.sprintf "observation %s outside register vocabulary"
                  (V.obs_to_string r.obs))))
    records;
  (match !bad with
  | None when Hashtbl.mem writes 0 && Hashtbl.mem reads 0 ->
      (* reads of 0 could bind to the initial value or to the write *)
      flag (Record.Unknown "value 0 both initial and written; ambiguous")
  | _ -> ());
  match !bad with
  | Some o -> o
  | None -> (
      (* writes sorted by invocation, suffix-min of response times *)
      let ws =
        Record.sorted_by_start
          (Array.of_seq (Hashtbl.to_seq_values writes))
      in
      let k = Array.length ws in
      let suffix = Array.make (k + 1) None in
      for i = k - 1 downto 0 do
        suffix.(i) <-
          (match suffix.(i + 1) with
          | Some (f, _) as s when Rat.le f ws.(i).Record.finish -> s
          | _ -> Some (ws.(i).Record.finish, i))
      done;
      let first_invoked_after threshold =
        (* least index with start > threshold; [None] = from 0 *)
        match threshold with
        | None -> 0
        | Some t ->
            let lo = ref 0 and hi = ref k in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if Rat.le ws.(mid).Record.start t then lo := mid + 1
              else hi := mid
            done;
            !lo
      in
      let check_read v (r : Record.t) =
        if !bad <> None then ()
        else
          match (Hashtbl.find_opt writes v, v) with
          | None, 0 -> (
              (* initial value: stale iff any write finishes before r starts *)
              match suffix.(0) with
              | Some (f, j) when Rat.lt f r.start ->
                  flag
                    (Record.violation ~kind ~rule:"register.stale"
                       [ r; ws.(j) ]
                       "read of the initial value after a completed write")
              | _ -> ())
          | None, _ ->
              flag
                (Record.violation ~kind ~rule:"register.fresh" [ r ]
                   (Printf.sprintf "read returned %d, never written" v))
          | Some w, _ ->
              if Rat.lt r.finish w.start then
                flag
                  (Record.violation ~kind ~rule:"register.before-write"
                     [ r; w ]
                     (Printf.sprintf
                        "read returned %d entirely before its write" v))
              else
                let idx = first_invoked_after (Some w.finish) in
                (match suffix.(idx) with
                | Some (f, j) when Rat.lt f r.start ->
                    flag
                      (Record.violation ~kind ~rule:"register.stale"
                         [ r; w; ws.(j) ]
                         (Printf.sprintf
                            "read returned %d after a forced overwrite" v))
                | _ -> ())
      in
      Hashtbl.iter (fun v rs -> List.iter (check_read v) rs) reads;
      match !bad with
      | Some o -> o
      | None -> (
          (* certificate: each write and its reads form one atomic
             block; the block order is a linear extension of the single
             forced-precedence relation (min block finish vs max block
             start), with the initial-value reads emitted first *)
          let reads_of v =
            List.sort
              (fun (a : Record.t) b -> Rat.compare a.finish b.finish)
              (Option.value ~default:[] (Hashtbl.find_opt reads v))
          in
          let blocks =
            Array.map
              (fun (w : Record.t) ->
                let v = match w.obs with V.Put v -> v | _ -> assert false in
                w :: reads_of v)
              ws
          in
          let fkey =
            Array.map
              (fun ops ->
                Rat.min_list (List.map (fun (r : Record.t) -> r.finish) ops))
              blocks
          and skey =
            Array.map
              (fun ops ->
                Rat.max_list (List.map (fun (r : Record.t) -> r.start) ops))
              blocks
          in
          let init = if Hashtbl.mem writes 0 then [] else reads_of 0 in
          let init_ok =
            match init with
            | [] -> true
            | _ ->
                let s =
                  Rat.max_list (List.map (fun (r : Record.t) -> r.start) init)
                in
                Array.for_all (fun f -> not (Rat.lt f s)) fkey
          in
          if not init_ok then
            Record.Unknown
              "a write block is forced before a read of the initial value"
          else
            match
              Extension.solve ~m:(Array.length blocks)
                ~relations:
                  [ { Extension.fkey = Key.make fkey; skey = Key.make skey } ]
                (fun i -> (0, fkey.(i)))
            with
            | None ->
                Record.Unknown
                  "no write order satisfies the forced precedences"
            | Some idx ->
                let order = ref [] in
                let emit (r : Record.t) = order := r.id :: !order in
                List.iter emit init;
                Array.iter (fun i -> List.iter emit blocks.(i)) idx;
                Order (List.rev !order)))
