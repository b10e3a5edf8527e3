(* Randomized-eviction stress: real caches may write back any dirty line at
   any time, so a crash can expose states between "strict" and "full".  For
   each failure point we sample several randomized crash images and require
   recovery to land in a legal state — the strongest end-to-end statement
   the simulator can make about the transactional workloads. *)

module Ctx = Xfd_sim.Ctx

let l = Tu.loc __POS__

let seeds = [ 11; 22; 33; 44 ]

(* For every failure point and every seed, boot a randomized image, run
   [recover_and_read], and check the result with [legal]. *)
let stress ~setup ~pre ~recover_and_read ~legal =
  List.iteri
    (fun n images ->
      List.iter2
        (fun seed img ->
          let got = Tu.on_image img recover_and_read in
          if not (legal got) then
            Alcotest.failf "failure point %d seed %d: illegal recovered state" n seed)
        seeds images)
    (Tu.randomized_crashes ~seeds ~setup ~pre)

let tests =
  [
    Tu.case "btree recovers to an insertion prefix under random evictions" (fun () ->
        let ks = Xfd_workloads.Wl.keys ~seed:321 5 in
        stress
          ~setup:(fun ctx ->
            let h = Xfd_workloads.Btree.create ctx in
            ignore h)
          ~pre:(fun ctx ->
            let h = Xfd_workloads.Btree.open_ ctx in
            Ctx.roi_begin ctx ~loc:l;
            List.iter (fun k -> Xfd_workloads.Btree.insert ctx h k k) ks;
            Ctx.roi_end ctx ~loc:l)
          ~recover_and_read:(fun ctx ->
            match Xfd_workloads.Btree.open_ ctx with
            | exception Xfd_pmdk.Pool.Pool_corrupt _ -> None
            | h ->
              Xfd_workloads.Btree.recover ctx h;
              Some (List.map fst (Xfd_workloads.Btree.entries ctx h)))
          ~legal:(function
            | None -> true (* randomized image may predate pool creation *)
            | Some got -> Tu.is_prefix_set got ks));
    Tu.case "redo log recovers whole transactions under random evictions" (fun () ->
        stress
          ~setup:(fun ctx ->
            let t = Xfd_mechanisms.Redo_log.create ctx in
            Xfd_mechanisms.Redo_log.transact ctx t ~variant:`Correct [ (0, 0L); (1, 100L) ])
          ~pre:(fun ctx ->
            let t = Xfd_mechanisms.Redo_log.open_ ctx in
            Ctx.roi_begin ctx ~loc:l;
            Xfd_mechanisms.Redo_log.transact ctx t ~variant:`Correct [ (0, 1L); (1, 101L) ];
            Xfd_mechanisms.Redo_log.transact ctx t ~variant:`Correct [ (0, 2L); (1, 102L) ];
            Ctx.roi_end ctx ~loc:l)
          ~recover_and_read:(fun ctx ->
            match Xfd_mechanisms.Redo_log.open_ ctx with
            | exception Xfd_pmdk.Pool.Pool_corrupt _ -> None
            | t ->
              Xfd_mechanisms.Redo_log.recover ctx t;
              Some
                ( Xfd_mechanisms.Redo_log.get ctx t 0,
                  Xfd_mechanisms.Redo_log.get ctx t 1 ))
          ~legal:(function
            | None -> true
            | Some (a, b) -> Int64.equal (Int64.add a 100L) b));
    Tu.case "pblk blocks are never torn under random evictions" (fun () ->
        let blk_bytes i round = Bytes.make 128 (Char.chr (65 + i + (round * 4))) in
        stress
          ~setup:(fun ctx ->
            let pool = Xfd_pmdk.Pool.create_atomic ctx ~loc:l () in
            let blk = Xfd_pmdk.Pblk.create ctx pool ~block_size:128 ~count:2 in
            Xfd_pmdk.Layout.write_ptr ctx ~loc:l (Xfd_pmdk.Pool.root pool)
              (Xfd_pmdk.Pblk.meta_addr blk);
            Xfd_pmdk.Pmem.persist ctx ~loc:l (Xfd_pmdk.Pool.root pool) 8;
            for i = 0 to 1 do
              Xfd_pmdk.Pblk.write ctx blk i (blk_bytes i 0)
            done)
          ~pre:(fun ctx ->
            let pool = Xfd_pmdk.Pool.open_pool ctx ~loc:l () in
            let blk =
              Xfd_pmdk.Pblk.attach ctx
                ~meta:(Xfd_pmdk.Layout.read_ptr ctx ~loc:l (Xfd_pmdk.Pool.root pool))
            in
            Ctx.roi_begin ctx ~loc:l;
            for round = 1 to 2 do
              for i = 0 to 1 do
                Xfd_pmdk.Pblk.write ctx blk i (blk_bytes i round)
              done
            done;
            Ctx.roi_end ctx ~loc:l)
          ~recover_and_read:(fun ctx ->
            match Xfd_pmdk.Pool.open_pool ctx ~loc:l () with
            | exception Xfd_pmdk.Pool.Pool_corrupt _ -> None
            | pool -> begin
              match
                Xfd_pmdk.Pblk.attach ctx
                  ~meta:(Xfd_pmdk.Layout.read_ptr ctx ~loc:l (Xfd_pmdk.Pool.root pool))
              with
              | exception Failure _ -> None (* metadata line not evicted yet *)
              | blk -> Some (Xfd_pmdk.Pblk.read ctx blk 0, Xfd_pmdk.Pblk.read ctx blk 1)
            end)
          ~legal:(function
            | None -> true
            | Some (b0, b1) ->
              let legal_one i b =
                List.exists (fun r -> Bytes.equal b (blk_bytes i r)) [ 0; 1; 2 ]
              in
              legal_one 0 b0 && legal_one 1 b1));
    Tu.case "checksum log accepts only valid records under random evictions" (fun () ->
        let payload r = String.init Xfd_mechanisms.Checksum_ring.payload_bytes
            (fun i -> Char.chr (97 + ((i + r) mod 26))) in
        stress
          ~setup:(fun ctx -> ignore (Xfd_mechanisms.Checksum_ring.create ctx ~variant:`Correct))
          ~pre:(fun ctx ->
            let t = Xfd_mechanisms.Checksum_ring.open_ ctx ~variant:`Correct in
            Ctx.roi_begin ctx ~loc:l;
            for r = 1 to 3 do
              Xfd_mechanisms.Checksum_ring.append ctx t (payload r)
            done;
            Ctx.roi_end ctx ~loc:l)
          ~recover_and_read:(fun ctx ->
            match Xfd_mechanisms.Checksum_ring.open_ ctx ~variant:`Correct with
            | exception Xfd_pmdk.Pool.Pool_corrupt _ -> None
            | t -> Some (Xfd_mechanisms.Checksum_ring.recover ctx t ~variant:`Correct))
          ~legal:(function
            | None -> true
            | Some payloads ->
              (* Verified recovery must return some prefix of the appended
                 payloads, bit-exact. *)
              List.for_all2 (fun got r -> got = payload r)
                payloads
                (List.filteri (fun i _ -> i < List.length payloads) [ 1; 2; 3 ])));
  ]

let suite = [ ("stress.randomized", tests) ]
