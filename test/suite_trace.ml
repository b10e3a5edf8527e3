(* Unit tests for trace events and buffers, and for Loc/Rng/Bytesx. *)

module Event = Xfd_trace.Event
module Trace = Xfd_trace.Trace
module Loc = Xfd_util.Loc
module Rng = Xfd_util.Rng

let sample_kinds : Event.kind list =
  [
    Event.Write { addr = 0x100; size = 8 };
    Event.Read { addr = 0x108; size = 16 };
    Event.Nt_write { addr = 0x200; size = 4 };
    Event.Clwb { addr = 0x100 };
    Event.Clflush { addr = 0x140 };
    Event.Clflushopt { addr = 0x180 };
    Event.Sfence;
    Event.Mfence;
    Event.Tx_begin;
    Event.Tx_add { addr = 0x300; size = 24 };
    Event.Tx_xadd { addr = 0x340; size = 32 };
    Event.Tx_commit;
    Event.Tx_abort;
    Event.Tx_alloc { addr = 0x400; size = 64; zeroed = true };
    Event.Tx_alloc { addr = 0x440; size = 64; zeroed = false };
    Event.Tx_free { addr = 0x400 };
    Event.Commit_var { addr = 0x500; size = 8 };
    Event.Commit_range { var = 0x500; addr = 0x508; size = 56 };
    Event.Roi_begin;
    Event.Roi_end;
    Event.Skip_detection_begin;
    Event.Skip_detection_end;
    Event.Marker "hello world";
  ]

(* Generator covering every kind constructor, with adversarial free-form
   text (field separators, escapes, newlines, raw high bytes) in marker
   bodies and file names — the payloads the escaping in to_line exists
   for. *)
let nasty_string_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '|'; ' '; '\n'; '\r'; '\t'; '\\'; '"'; '\xc3'; '\x01' ])
      (int_bound 16))

let kind_gen =
  QCheck.Gen.(
    let addr = map (fun o -> 0x100 + o) (int_bound 4096) in
    let size = int_range 1 128 in
    oneof
      [
        map2 (fun addr size -> Event.Write { addr; size }) addr size;
        map2 (fun addr size -> Event.Read { addr; size }) addr size;
        map2 (fun addr size -> Event.Nt_write { addr; size }) addr size;
        map (fun addr -> Event.Clwb { addr }) addr;
        map (fun addr -> Event.Clflush { addr }) addr;
        map (fun addr -> Event.Clflushopt { addr }) addr;
        return Event.Sfence;
        return Event.Mfence;
        return Event.Tx_begin;
        map2 (fun addr size -> Event.Tx_add { addr; size }) addr size;
        map2 (fun addr size -> Event.Tx_xadd { addr; size }) addr size;
        return Event.Tx_commit;
        return Event.Tx_abort;
        map3 (fun addr size zeroed -> Event.Tx_alloc { addr; size; zeroed }) addr size bool;
        map (fun addr -> Event.Tx_free { addr }) addr;
        map2 (fun addr size -> Event.Commit_var { addr; size }) addr size;
        map3 (fun var addr size -> Event.Commit_range { var; addr; size }) addr addr size;
        return Event.Roi_begin;
        return Event.Roi_end;
        return Event.Skip_detection_begin;
        return Event.Skip_detection_end;
        map (fun s -> Event.Marker s) nasty_string_gen;
      ])

let event_gen =
  QCheck.Gen.(
    map3
      (fun seq kind (file, line) -> { Event.seq; kind; loc = Loc.make ~file ~line })
      (int_bound 100000) kind_gen
      (pair nasty_string_gen (int_bound 9999)))

let event_arb =
  QCheck.make ~print:(fun ev -> String.escaped (Event.to_line ev)) event_gen

let event_props =
  [
    QCheck.Test.make ~count:500 ~name:"to_line/of_line round trips every kind" event_arb
      (fun ev -> Event.of_line (Event.to_line ev) = Some ev);
    QCheck.Test.make ~count:200 ~name:"to_line never emits a line terminator" event_arb
      (fun ev ->
        let line = Event.to_line ev in
        not (String.contains line '\n') && not (String.contains line '\r'));
  ]

let event_tests =
  [
    Tu.case "line round trip for every kind" (fun () ->
        List.iteri
          (fun i kind ->
            let ev = { Event.seq = i; kind; loc = Loc.make ~file:"f.ml" ~line:i } in
            match Event.of_line (Event.to_line ev) with
            | Some ev' ->
              Alcotest.(check string)
                (Printf.sprintf "kind %d" i)
                (Format.asprintf "%a" Event.pp_kind ev.Event.kind)
                (Format.asprintf "%a" Event.pp_kind ev'.Event.kind);
              Alcotest.(check int) "line" i ev'.Event.loc.Loc.line
            | None -> Alcotest.failf "kind %d did not parse back: %s" i (Event.to_line ev))
          sample_kinds);
    Tu.case "of_line rejects garbage" (fun () ->
        Alcotest.(check bool) "none" true (Event.of_line "not an event" = None);
        Alcotest.(check bool) "none" true (Event.of_line "1|BOGUS 3|f|2" = None));
    Tu.case "classification helpers" (fun () ->
        Alcotest.(check bool) "write is pm op" true (Event.is_pm_operation (Event.Write { addr = 0; size = 1 }));
        Alcotest.(check bool) "marker is not" false (Event.is_pm_operation (Event.Marker "m"));
        Alcotest.(check bool) "clwb is flush" true (Event.is_flush (Event.Clwb { addr = 0 }));
        Alcotest.(check bool) "sfence is fence" true (Event.is_fence Event.Sfence);
        Alcotest.(check bool) "write not fence" false (Event.is_fence (Event.Write { addr = 0; size = 1 })));
  ]

let trace_tests =
  [
    Tu.case "append assigns sequence numbers" (fun () ->
        let t = Trace.create () in
        for i = 0 to 999 do
          let ev = Trace.append t ~kind:Event.Sfence ~loc:Loc.unknown in
          Alcotest.(check int) "seq" i ev.Event.seq
        done;
        Alcotest.(check int) "length" 1000 (Trace.length t));
    Tu.case "get out of bounds raises" (fun () ->
        let t = Trace.create () in
        Alcotest.check_raises "empty" (Invalid_argument "Trace.get: out of bounds") (fun () ->
            ignore (Trace.get t 0)));
    Tu.case "iter_prefix stops at n" (fun () ->
        let t = Trace.create () in
        for _ = 1 to 10 do
          ignore (Trace.append t ~kind:Event.Sfence ~loc:Loc.unknown)
        done;
        let n = ref 0 in
        Trace.iter_prefix t 4 (fun _ -> incr n);
        Alcotest.(check int) "prefix" 4 !n;
        Trace.iter_prefix t 100 (fun _ -> ());
        Alcotest.(check int) "length unchanged" 10 (Trace.length t));
    Tu.case "counts classify events" (fun () ->
        let t = Trace.create () in
        let add kind = ignore (Trace.append t ~kind ~loc:Loc.unknown) in
        add (Event.Write { addr = 0; size = 8 });
        add (Event.Read { addr = 0; size = 8 });
        add (Event.Clwb { addr = 0 });
        add Event.Sfence;
        add Event.Tx_begin;
        add Event.Roi_begin;
        let c = Trace.counts t in
        Alcotest.(check int) "writes" 1 c.Trace.writes;
        Alcotest.(check int) "reads" 1 c.Trace.reads;
        Alcotest.(check int) "flushes" 1 c.Trace.flushes;
        Alcotest.(check int) "fences" 1 c.Trace.fences;
        Alcotest.(check int) "tx" 1 c.Trace.tx_ops;
        Alcotest.(check int) "annotations" 1 c.Trace.annotations);
    Tu.case "save/load round trip" (fun () ->
        let t = Trace.create () in
        List.iter
          (fun kind -> ignore (Trace.append t ~kind ~loc:(Loc.make ~file:"x.ml" ~line:3)))
          sample_kinds;
        let file = Filename.temp_file "xfd_trace" ".txt" in
        let oc = open_out file in
        Trace.save t oc;
        close_out oc;
        let ic = open_in file in
        let t' = Result.get_ok (Trace.load ic) in
        close_in ic;
        Sys.remove file;
        Alcotest.(check int) "same length" (Trace.length t) (Trace.length t');
        Alcotest.(check (list string)) "same lines"
          (List.map Event.to_line (Trace.to_list t))
          (List.map Event.to_line (Trace.to_list t')));
    Tu.case "load names the first line that is not an event" (fun () ->
        let load text =
          let file = Filename.temp_file "xfd_trace" ".txt" in
          Out_channel.with_open_text file (fun oc -> output_string oc text);
          let r = In_channel.with_open_text file Trace.load in
          Sys.remove file;
          Result.map Trace.length r
        in
        let ok = "0|SFENCE|a.ml|1\n" in
        Alcotest.(check (result int (pair int string))) "blank lines skipped" (Ok 2)
          (load (ok ^ "\n" ^ ok));
        Alcotest.(check (result int (pair int string))) "a JSON file" (Error (1, "{"))
          (load "{\n  \"type\": \"xfd_report\"\n}\n");
        Alcotest.(check (result int (pair int string))) "a bad number"
          (Error (3, "2|WRITE 0x10 eight|a.ml|3"))
          (load (ok ^ ok ^ "2|WRITE 0x10 eight|a.ml|3\n" ^ ok));
        Alcotest.(check bool) "of_line rejects a bad number" true
          (Event.of_line "x|SFENCE|a.ml|1" = None));
  ]

let util_tests =
  [
    Tu.case "loc formatting and ordering" (fun () ->
        let a = Loc.make ~file:"a.ml" ~line:3 and b = Loc.make ~file:"b.ml" ~line:1 in
        Alcotest.(check string) "pp" "a.ml:3" (Loc.to_string a);
        Alcotest.(check bool) "file order first" true (Loc.compare a b < 0);
        Alcotest.(check bool) "equal" true (Loc.equal a a);
        let c = Loc.of_pos ("c.ml", 9, 0, 0) in
        Alcotest.(check string) "of_pos" "c.ml:9" (Loc.to_string c));
    Tu.case "rng determinism" (fun () ->
        let a = Rng.create 1L and b = Rng.create 1L in
        for _ = 1 to 100 do
          Alcotest.check Tu.i64 "same stream" (Rng.next a) (Rng.next b)
        done);
    Tu.case "rng int bounds" (fun () ->
        let r = Rng.create 2L in
        for _ = 1 to 1000 do
          let v = Rng.int r 17 in
          Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
        done;
        Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound <= 0") (fun () ->
            ignore (Rng.int r 0)));
    Tu.case "rng split independence" (fun () ->
        let r = Rng.create 3L in
        let s = Rng.split r in
        Alcotest.(check bool) "streams differ" true (not (Int64.equal (Rng.next r) (Rng.next s))));
    Tu.case "rng keys are lowercase" (fun () ->
        let r = Rng.create 4L in
        let k = Rng.key r 32 in
        Alcotest.(check int) "length" 32 (String.length k);
        String.iter (fun c -> Alcotest.(check bool) "a..z" true (c >= 'a' && c <= 'z')) k);
    Tu.case "bytesx i64 round trip" (fun () ->
        let v = -123456789L in
        Alcotest.check Tu.i64 "round" v (Xfd_util.Bytesx.i64_of_bytes (Xfd_util.Bytesx.i64_to_bytes v)));
    Tu.case "hexdump shape" (fun () ->
        let s = Xfd_util.Bytesx.hexdump (Bytes.make 17 '\001') in
        Alcotest.(check bool) "two lines" true (String.contains s '\n'));
  ]

let suite =
  [
    ("trace.event", event_tests);
    ("trace.event-props", List.map QCheck_alcotest.to_alcotest event_props);
    ("trace.buffer", trace_tests);
    ("util", util_tests);
  ]
