(* Unit tests for the detection core: state machines, shadow PM, commit
   registry, detector backend. *)

module Pstate = Xfd.Pstate
module Cstate = Xfd.Cstate
module Shadow = Xfd.Shadow_pm
module Registry = Xfd.Commit_registry
module Detector = Xfd.Detector
module Report = Xfd.Report
module Event = Xfd_trace.Event
module Trace = Xfd_trace.Trace
module Loc = Xfd_util.Loc

let l = Loc.make ~file:"t.ml" ~line:1
let l2 = Loc.make ~file:"t.ml" ~line:2

let pstate_tests =
  [
    Tu.case "figure 9 transitions" (fun () ->
        let open Pstate in
        let adr = Xfd_trace.Domain_model.Adr in
        let on_write = on_write_in adr and on_nt_write = on_nt_write_in adr in
        let on_flush = on_flush_in adr and on_fence = on_fence_in adr in
        Alcotest.(check string) "U+w" "M" (to_string (on_write Unmodified));
        Alcotest.(check string) "M+w" "M" (to_string (on_write Modified));
        Alcotest.(check string) "W+w" "M" (to_string (on_write Writeback_pending));
        Alcotest.(check string) "P+w" "M" (to_string (on_write Persisted));
        Alcotest.(check string) "M+f" "W" (to_string (on_flush Modified));
        Alcotest.(check string) "U+f" "U" (to_string (on_flush Unmodified));
        Alcotest.(check string) "P+f" "P" (to_string (on_flush Persisted));
        Alcotest.(check string) "W+sf" "P" (to_string (on_fence Writeback_pending));
        Alcotest.(check string) "M+sf" "M" (to_string (on_fence Modified));
        Alcotest.(check string) "nt" "W" (to_string (on_nt_write Unmodified)));
    Tu.case "only persisted is persisted" (fun () ->
        let open Pstate in
        Alcotest.(check bool) "P" true (is_persisted Persisted);
        List.iter
          (fun s -> Alcotest.(check bool) (to_string s) false (is_persisted s))
          [ Unmodified; Modified; Writeback_pending ]);
  ]

let cstate_tests =
  [
    Tu.case "eq.3 window classification" (fun () ->
        let c = Cstate.classify ~t_prelast:2 ~t_last:5 in
        Alcotest.(check string) "inside" "C" (Cstate.to_string (c ~tlast:3));
        Alcotest.(check string) "at prelast" "C" (Cstate.to_string (c ~tlast:2));
        Alcotest.(check string) "at last" "IC-uncommitted" (Cstate.to_string (c ~tlast:5));
        Alcotest.(check string) "after" "IC-uncommitted" (Cstate.to_string (c ~tlast:7));
        Alcotest.(check string) "before" "IC-stale" (Cstate.to_string (c ~tlast:1)));
    Tu.case "single commit uses open lower bound" (fun () ->
        Alcotest.(check string) "anything earlier is consistent" "C"
          (Cstate.to_string (Cstate.classify ~t_prelast:(-1) ~t_last:4 ~tlast:0)));
    Tu.case "never committed means uncommitted" (fun () ->
        Alcotest.(check string) "uncommitted" "IC-uncommitted"
          (Cstate.to_string Cstate.not_committed));
    Tu.case "figure 10 transitions" (fun () ->
        let open Cstate in
        Alcotest.(check bool) "write -> uncommitted" true (equal (on_write Consistent) Uncommitted);
        Alcotest.(check bool) "commit earlier write" true
          (equal (on_commit ~modified_before:true Uncommitted) Consistent);
        Alcotest.(check bool) "commit same-epoch write" true
          (equal (on_commit ~modified_before:false Uncommitted) Uncommitted);
        Alcotest.(check bool) "recommit consistent -> stale" true
          (equal (on_commit ~modified_before:true Consistent) Stale);
        Alcotest.(check bool) "stale stays stale" true
          (equal (on_commit ~modified_before:true Stale) Stale));
    Tu.case "fsm agrees with window classification on a random trace" (fun () ->
        (* One location m, one commit variable x.  Apply a random sequence
           of (write m | commit x) at increasing timestamps and compare the
           FSM state with the Eq. 3 classification. *)
        let rng = Xfd_util.Rng.create 99L in
        for _trial = 1 to 200 do
          let fsm = ref Cstate.Uncommitted in
          let tlast = ref (-2) and t_prelast = ref (-1) and t_last = ref (-1) in
          let commits = ref 0 in
          let written = ref false in
          for ts = 0 to 20 do
            if Xfd_util.Rng.bool rng then begin
              fsm := Cstate.on_write !fsm;
              tlast := ts;
              written := true
            end
            else begin
              fsm := Cstate.on_commit ~modified_before:(!tlast < ts) !fsm;
              t_prelast := !t_last;
              t_last := ts;
              incr commits
            end
          done;
          if !written && !commits > 0 then begin
            let expected =
              Cstate.classify
                ~t_prelast:(if !commits = 1 then -1 else !t_prelast)
                ~t_last:!t_last ~tlast:!tlast
            in
            Alcotest.(check string) "fsm = window" (Cstate.to_string expected)
              (Cstate.to_string !fsm)
          end
        done);
  ]

let shadow_tests =
  [
    Tu.case "write/flush/fence lifecycle" (fun () ->
        let s = Shadow.create () in
        Shadow.write s 100 1 ~ts:0 ~ev:0 ~loc:l ~nt:false ~post:false;
        (match Shadow.find s 100 with
        | Some c -> Alcotest.(check string) "M" "M" (Pstate.to_string c.Shadow.pstate)
        | None -> Alcotest.fail "cell missing");
        (match Shadow.flush_line s 64 ~ev:0 with
        | `Had_modified -> ()
        | _ -> Alcotest.fail "expected useful flush");
        Shadow.fence s ~ev:0;
        match Shadow.find s 100 with
        | Some c -> Alcotest.(check string) "P" "P" (Pstate.to_string c.Shadow.pstate)
        | None -> Alcotest.fail "cell missing");
    Tu.case "flush classification" (fun () ->
        let s = Shadow.create () in
        Alcotest.(check bool) "untracked line is clean" true (Shadow.flush_line s 0 ~ev:0 = `Clean);
        Shadow.write s 5 1 ~ts:0 ~ev:0 ~loc:l ~nt:false ~post:false;
        ignore (Shadow.flush_line s 0 ~ev:0);
        Alcotest.(check bool) "second flush is double" true
          (Shadow.flush_line s 0 ~ev:0 = `Waste Pstate.Double_flush);
        Shadow.fence s ~ev:0;
        Alcotest.(check bool) "flush of persisted is unnecessary" true
          (Shadow.flush_line s 0 ~ev:0 = `Waste Pstate.Unnecessary_flush));
    Tu.case "nt write goes straight to pending" (fun () ->
        let s = Shadow.create () in
        Shadow.write s 7 1 ~ts:0 ~ev:0 ~loc:l ~nt:true ~post:false;
        Shadow.fence s ~ev:0;
        match Shadow.find s 7 with
        | Some c -> Alcotest.(check string) "P" "P" (Pstate.to_string c.Shadow.pstate)
        | None -> Alcotest.fail "cell missing");
    Tu.case "overlay copy-on-write isolation" (fun () ->
        let base = Shadow.create () in
        Shadow.write base 10 1 ~ts:1 ~ev:0 ~loc:l ~nt:false ~post:false;
        let fork = Shadow.overlay base in
        (* fork sees the parent cell *)
        (match Shadow.find fork 10 with
        | Some c -> Alcotest.(check int) "tlast" 1 c.Shadow.tlast
        | None -> Alcotest.fail "fork missed parent cell");
        Shadow.write fork 10 1 ~ts:5 ~ev:0 ~loc:l2 ~nt:false ~post:true;
        (* parent unchanged *)
        (match Shadow.find base 10 with
        | Some c ->
          Alcotest.(check int) "parent tlast" 1 c.Shadow.tlast;
          Alcotest.(check bool) "parent not post" false c.Shadow.post_written
        | None -> Alcotest.fail "parent lost cell");
        match Shadow.find fork 10 with
        | Some c -> Alcotest.(check bool) "fork post" true c.Shadow.post_written
        | None -> Alcotest.fail "fork lost cell");
    Tu.case "overlay fence does not leak to parent" (fun () ->
        let base = Shadow.create () in
        Shadow.write base 10 1 ~ts:1 ~ev:0 ~loc:l ~nt:false ~post:false;
        let fork = Shadow.overlay base in
        ignore (Shadow.flush_line fork 0 ~ev:0);
        Shadow.fence fork ~ev:0;
        (match Shadow.find fork 10 with
        | Some c -> Alcotest.(check string) "fork P" "P" (Pstate.to_string c.Shadow.pstate)
        | None -> Alcotest.fail "missing");
        match Shadow.find base 10 with
        | Some c -> Alcotest.(check string) "parent still M" "M" (Pstate.to_string c.Shadow.pstate)
        | None -> Alcotest.fail "missing");
    Tu.case "mark_alloc_raw resets and flags bytes" (fun () ->
        let s = Shadow.create () in
        Shadow.write s 20 1 ~ts:3 ~ev:0 ~loc:l ~nt:false ~post:false;
        Shadow.mark_alloc_raw s 20 4 ~ev:0;
        (match Shadow.find s 20 with
        | Some c ->
          Alcotest.(check bool) "uninit" true c.Shadow.uninit;
          Alcotest.(check string) "U" "U" (Pstate.to_string c.Shadow.pstate)
        | None -> Alcotest.fail "missing");
        Shadow.write s 20 1 ~ts:4 ~ev:0 ~loc:l ~nt:false ~post:false;
        match Shadow.find s 20 with
        | Some c -> Alcotest.(check bool) "write clears uninit" false c.Shadow.uninit
        | None -> Alcotest.fail "missing");
  ]

let registry_tests =
  [
    Tu.case "commit byte membership" (fun () ->
        let r = Registry.create () in
        Registry.register_var r ~var:100 ~size:8;
        Alcotest.(check bool) "inside" true (Registry.is_commit_byte r 104);
        Alcotest.(check bool) "outside" false (Registry.is_commit_byte r 108));
    Tu.case "window evolves with commit writes" (fun () ->
        let r = Registry.create () in
        Registry.register_range r ~var:100 ~addr:200 ~size:8;
        Alcotest.(check bool) "never committed" true (Registry.window_for r 200 = Some None);
        Registry.on_write r ~defer:false ~addr:100 ~size:8 ~ts:3 ~ev:0;
        Alcotest.(check bool) "one commit" true (Registry.window_for r 200 = Some (Some (-1, 3)));
        Registry.on_write r ~defer:false ~addr:100 ~size:8 ~ts:7 ~ev:0;
        Alcotest.(check bool) "two commits" true (Registry.window_for r 200 = Some (Some (3, 7)));
        Alcotest.(check bool) "unrelated byte" true (Registry.window_for r 300 = None));
    Tu.case "partial overlap counts as commit write" (fun () ->
        let r = Registry.create () in
        Registry.register_var r ~var:100 ~size:8;
        Registry.register_range r ~var:100 ~addr:200 ~size:4;
        Registry.on_write r ~defer:false ~addr:96 ~size:8 ~ts:1 ~ev:0 (* spans 96..103 *);
        Alcotest.(check bool) "committed" true (Registry.window_for r 200 = Some (Some (-1, 1))));
    Tu.case "eq.2 disjointness enforced" (fun () ->
        let r = Registry.create () in
        Registry.register_range r ~var:100 ~addr:200 ~size:16;
        Alcotest.(check bool) "same var re-register ok" true
          (try
             Registry.register_range r ~var:100 ~addr:200 ~size:16;
             true
           with _ -> false);
        match Registry.register_range r ~var:300 ~addr:208 ~size:4 with
        | () -> Alcotest.fail "expected Overlapping_commit_ranges"
        | exception Registry.Overlapping_commit_ranges (a, b) ->
          Alcotest.(check (pair int int)) "culprits" (100, 300) (a, b));
    Tu.case "a fork is independent of its base" (fun () ->
        let r = Registry.create () in
        Registry.register_range r ~var:100 ~addr:200 ~size:8;
        Registry.on_write r ~defer:false ~addr:100 ~size:8 ~ts:1 ~ev:0;
        let c = Registry.fork r in
        Registry.on_write c ~defer:false ~addr:100 ~size:8 ~ts:9 ~ev:0;
        Alcotest.(check bool) "original window" true
          (Registry.window_for r 200 = Some (Some (-1, 1)));
        Alcotest.(check bool) "fork window" true (Registry.window_for c 200 = Some (Some (1, 9)));
        (* The base moving on leaves the fork at the fork point. *)
        Registry.on_write r ~defer:false ~addr:100 ~size:8 ~ts:5 ~ev:0;
        Registry.register_var r ~var:300 ~size:8;
        Alcotest.(check bool) "base moved on" true (Registry.window_for r 200 = Some (Some (1, 5)));
        Alcotest.(check bool) "fork unmoved" true (Registry.window_for c 200 = Some (Some (1, 9)));
        Alcotest.(check (pair int int)) "var counts" (2, 1)
          (Registry.var_count r, Registry.var_count c));
    Tu.case "a fork's memos follow its registrations and commits" (fun () ->
        let r = Registry.create () in
        Registry.register_range r ~var:100 ~addr:200 ~size:8;
        let f = Registry.fork r in
        (* Each query first fills the memo that the next update must
           invalidate. *)
        Alcotest.(check bool) "gap" false (Registry.is_commit_byte f 304);
        Registry.register_var f ~var:300 ~size:8;
        Alcotest.(check bool) "registered" true (Registry.is_commit_byte f 304);
        Alcotest.(check bool) "no range" true (Registry.window_for f 404 = None);
        Registry.register_range f ~var:300 ~addr:400 ~size:8;
        Alcotest.(check bool) "range registered" true (Registry.window_for f 404 = Some None);
        Alcotest.(check bool) "base range open" true (Registry.window_for f 204 = Some None);
        Registry.on_write f ~defer:false ~addr:100 ~size:1 ~ts:3 ~ev:7;
        Alcotest.(check bool) "base variable committed" true
          (Registry.window_for f 204 = Some (Some (-1, 3)));
        Registry.on_write f ~defer:true ~addr:300 ~size:1 ~ts:4 ~ev:8;
        Alcotest.(check bool) "deferred" true (Registry.window_for f 404 = Some None);
        Registry.apply_pending f;
        Alcotest.(check bool) "applied" true (Registry.window_for f 404 = Some (Some (-1, 4)));
        Alcotest.(check bool) "base untouched" true (Registry.window_for r 204 = Some None));
    Tu.case "overlap with an existing range names both culprits" (fun () ->
        let r = Registry.create () in
        Registry.register_range r ~var:100 ~addr:200 ~size:16;
        (* A one-byte graze at either edge is as illegal as full overlap. *)
        (match Registry.register_range r ~var:300 ~addr:215 ~size:8 with
        | () -> Alcotest.fail "tail graze accepted"
        | exception Registry.Overlapping_commit_ranges (a, b) ->
          Alcotest.(check (pair int int)) "tail culprits" (100, 300) (a, b));
        match Registry.register_range r ~var:300 ~addr:192 ~size:9 with
        | () -> Alcotest.fail "head graze accepted"
        | exception Registry.Overlapping_commit_ranges (a, b) ->
          Alcotest.(check (pair int int)) "head culprits" (100, 300) (a, b));
    Tu.case "zero-length registrations are inert" (fun () ->
        let r = Registry.create () in
        Registry.register_var r ~var:100 ~size:0;
        Alcotest.(check int) "variable exists" 1 (Registry.var_count r);
        Alcotest.(check bool) "no commit bytes" false (Registry.is_commit_byte r 100);
        Registry.register_range r ~var:100 ~addr:200 ~size:0;
        Alcotest.(check bool) "no range bytes" true (Registry.window_for r 200 = None);
        (* A zero-length range never conflicts, wherever it lands. *)
        Registry.register_range r ~var:300 ~addr:200 ~size:8;
        Registry.register_range r ~var:500 ~addr:204 ~size:0;
        Alcotest.(check bool) "zero-length overlay accepted" true
          (Registry.window_for r 204 = Some None));
  ]

(* ---- the persistent registry against the per-byte reference model ---- *)

module type REGISTRY = sig
  type t

  exception Overlapping_commit_ranges of int * int

  val create : unit -> t
  val fork : t -> t
  val rewind : t -> unit
  val register_var : t -> var:int -> size:int -> unit
  val register_range : t -> var:int -> addr:int -> size:int -> unit
  val on_write : t -> defer:bool -> addr:int -> size:int -> ts:int -> ev:int -> unit
  val apply_pending : t -> unit
  val drop_pending : t -> unit
  val is_commit_byte : t -> int -> bool
  val window_for : t -> int -> (int * int) option option
  val frame_for : t -> int -> (int * int) option
  val var_count : t -> int
end

(* Operations act on handle [h]: h0 is the base registry, and hk (k > 0)
   the k-th newest fork (the base when there are fewer).  [Fork] appends
   a fork of the base and retires the previous one; [Rewind] retires a
   live fork. *)
type reg_op =
  | Var of { h : int; var : int; size : int }
  | Range of { h : int; var : int; addr : int; size : int }
  | Write of { h : int; defer : bool; addr : int; size : int }
  | Apply of int
  | Drop of int
  | Fork
  | Rewind of int

let reg_op_to_string = function
  | Var { h; var; size } -> Printf.sprintf "var h%d %d+%d" h var size
  | Range { h; var; addr; size } -> Printf.sprintf "range h%d v%d %d+%d" h var addr size
  | Write { h; defer; addr; size } ->
    Printf.sprintf "write%s h%d %d+%d" (if defer then "/defer" else "") h addr size
  | Apply h -> Printf.sprintf "apply h%d" h
  | Drop h -> Printf.sprintf "drop h%d" h
  | Fork -> "fork"
  | Rewind h -> Printf.sprintf "rewind h%d" h

(* Every address an operation can touch lies below this. *)
let reg_window = 96

module Transcript (R : REGISTRY) = struct
  (* The registry's answers over the [n] bytes from [lo], asked from the
     top byte down when [down]. *)
  let answers ?(lo = 0) ?(n = reg_window) ?(down = false) r =
    let ask i =
      let a = lo + i in
      (R.is_commit_byte r a, R.window_for r a, R.frame_for r a)
    in
    let bytes = Array.make n (false, None, None) in
    for k = 0 to n - 1 do
      let i = if down then n - 1 - k else k in
      bytes.(i) <- ask i
    done;
    (R.var_count r, Array.to_list bytes)

  let guard f = match f () with v -> Some v | exception Invalid_argument _ -> None

  (* Run [ops] from an empty registry.  After each operation: how it
     ended (the culprit pair when [register_range] raised, [`Retired]
     when the handle was a retired fork), and the answers of every
     handle over [n] bytes from [lo] ([None] for retired forks).  The
     sweeps alternate direction, so each starts in the span where the
     previous one left the handles' memos: an operation that changes an
     answer there without invalidating them shows. *)
  let run ?lo ?n ops =
    let handles = ref [| R.create () |] in
    List.mapi
      (fun i op ->
        let hs = !handles in
        let h k = hs.(if k = 0 then 0 else max 0 (Array.length hs - k)) in
        let outcome =
          match
            match op with
            | Var { h = k; var; size } -> R.register_var (h k) ~var ~size
            | Range { h = k; var; addr; size } -> R.register_range (h k) ~var ~addr ~size
            | Write { h = k; defer; addr; size } ->
              R.on_write (h k) ~defer ~addr ~size ~ts:i ~ev:(1000 + i)
            | Apply k -> R.apply_pending (h k)
            | Drop k -> R.drop_pending (h k)
            | Fork -> handles := Array.append hs [| R.fork hs.(0) |]
            | Rewind k -> R.rewind (h k)
          with
          | () -> `Done
          | exception R.Overlapping_commit_ranges (a, b) -> `Clash (a, b)
          | exception Invalid_argument _ -> `Retired
        in
        let down = i mod 2 = 1 in
        let views = Array.map (fun r -> guard (fun () -> answers ?lo ?n ~down r)) !handles in
        (outcome, Array.to_list views))
      ops
end

module Model_run = Transcript (Registry_model)
module Registry_run = Transcript (Registry)

(* Index of the first pair whose halves differ. *)
let rec first_diff i = function
  | (a, b) :: rest -> if a = b then first_diff (i + 1) rest else Some i
  | [] -> None

(* [Ok ()] when both registries agree after every operation, else where
   they first differ. *)
let registries_agree ?(lo = 0) ?n ops =
  let steps = List.combine (Model_run.run ~lo ?n ops) (Registry_run.run ~lo ?n ops) in
  match first_diff 0 steps with
  | None -> Ok ()
  | Some i ->
    let (mr, ma), (rr, ra) = List.nth steps i in
    let what =
      if mr <> rr then "outcomes differ (a clash or a retired handle)"
      else
        let handles = List.combine ma ra in
        let k = Option.get (first_diff 0 handles) in
        match List.nth handles k with
        | Some (mc, mb), Some (rc, rb) ->
          if mc <> rc then Printf.sprintf "handle %d: var_count %d vs %d" k mc rc
          else
            Printf.sprintf "handle %d: answers differ at byte %d" k
              (lo + Option.get (first_diff 0 (List.combine mb rb)))
        | _ -> Printf.sprintf "handle %d: retired in only one registry" k
    in
    Error (Printf.sprintf "after op %d (%s): %s" i (reg_op_to_string (List.nth ops i)) what)

let check_agree ?lo ?n ops =
  match registries_agree ?lo ?n ops with Ok () -> () | Error msg -> Alcotest.fail msg

let reg_op_gen =
  let open QCheck.Gen in
  (* Cache-line-ish bases plus one-byte offsets make overlaps, adjacency
     and one-byte grazes at either edge common. *)
  let addr =
    frequency
      [
        (3, map2 (fun i d -> max 0 ((8 * i) + d)) (int_bound 8) (oneofl [ -1; 0; 0; 1; 7 ]));
        (1, int_bound 80);
      ]
  in
  let size = frequency [ (3, oneofl [ 0; 1; 7; 8; 8; 9; 16 ]); (1, int_bound 12) ] in
  let var = frequency [ (3, map (fun i -> 8 * i) (int_bound 5)); (1, addr) ] in
  (* The base or the newest fork, mostly. *)
  let h = frequency [ (2, return 0); (3, return 1); (1, return 2); (1, return 3) ] in
  frequency
    [
      (3, map3 (fun h var size -> Var { h; var; size }) h var size);
      (5, map3 (fun (h, var) addr size -> Range { h; var; addr; size }) (pair h var) addr size);
      ( 5,
        map3 (fun (h, defer) addr size -> Write { h; defer; addr; size }) (pair h bool) addr size
      );
      (2, map (fun h -> Apply h) h);
      (1, map (fun h -> Drop h) h);
      (2, return Fork);
      (1, map (fun h -> Rewind h) h);
    ]

(* No [long_factor] here: the nightly job sets QCHECK_LONG_FACTOR. *)
let registry_model_prop =
  QCheck.Test.make ~count:150
    ~name:"persistent registry answers as the per-byte model, forks and rewinds included"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map reg_op_to_string ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) reg_op_gen))
    (fun ops ->
      match registries_agree ops with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let registry_model_tests =
  [
    Tu.case "model agreement: forking after the base moved on" (fun () ->
        check_agree
          [
            Range { h = 0; var = 0; addr = 16; size = 16 };
            Write { h = 0; defer = false; addr = 0; size = 8 };
            Write { h = 0; defer = true; addr = 4; size = 1 };
            Fork;
            (* the base moves on: commits and new variables *)
            Apply 0;
            Range { h = 0; var = 8; addr = 40; size = 8 };
            Write { h = 0; defer = false; addr = 0; size = 16 };
            (* then the fork mutates what the base changed *)
            Write { h = 1; defer = false; addr = 0; size = 8 };
            Range { h = 1; var = 8; addr = 32; size = 8 };
            Apply 1 (* commits the deferred write it inherited *);
            Var { h = 1; var = 12; size = 8 } (* takes over the base's bytes 12..15 *);
            Write { h = 1; defer = false; addr = 12; size = 2 } (* commits var 12 only *);
            Write { h = 1; defer = true; addr = 6; size = 8 };
            Apply 1;
            (* a new fork starts from the base again; the old one retires *)
            Fork;
            Write { h = 2; defer = false; addr = 0; size = 8 };
            Range { h = 1; var = 24; addr = 40; size = 8 } (* clashes with var 8 *);
            Rewind 1;
            Var { h = 1; var = 24; size = 8 };
          ]);
    Tu.case "model agreement: overlapping variables, grazes and empty spans" (fun () ->
        check_agree
          [
            Var { h = 0; var = 8; size = 16 };
            Var { h = 0; var = 16; size = 16 } (* takes over bytes 16..23 *);
            Var { h = 0; var = 12; size = 0 };
            Range { h = 0; var = 8; addr = 40; size = 8 };
            Range { h = 0; var = 16; addr = 47; size = 4 } (* grazes byte 47 *);
            Range { h = 0; var = 16; addr = 33; size = 8 } (* grazes byte 40 *);
            Range { h = 0; var = 16; addr = 48; size = 8 };
            Range { h = 0; var = 24; addr = 44; size = 0 };
            Write { h = 0; defer = false; addr = 14; size = 4 };
            Write { h = 0; defer = true; addr = 20; size = 0 };
            Fork;
            (* the same shapes through a fork, over the base's segments *)
            Var { h = 1; var = 4; size = 8 } (* takes over var 8's bytes 8..11 *);
            Var { h = 1; var = 20; size = 8 } (* and var 16's bytes 20..27 *);
            Range { h = 1; var = 20; addr = 56; size = 8 };
            Range { h = 1; var = 4; addr = 55; size = 2 } (* grazes byte 56 *);
            Range { h = 1; var = 4; addr = 39; size = 2 } (* grazes var 8's byte 40 *);
            Range { h = 1; var = 4; addr = 64; size = 0 };
            Write { h = 1; defer = false; addr = 6; size = 20 };
            Write { h = 1; defer = false; addr = 16; size = 8 };
            (* a fork variable over every byte a base variable still owns
               in the span: a write there commits only the fork's *)
            Var { h = 1; var = 2; size = 30 };
            Write { h = 1; defer = false; addr = 10; size = 4 };
            Write { h = 1; defer = true; addr = 12; size = 12 };
            Apply 1;
          ]);
    Tu.case "model agreement: 128 descending and 64 ascending fork registrations" (fun () ->
        (* Tx.recover's order, then the opposite one, then one in the
           middle: the fork's segment arrays grow at both ends. *)
        let flag i = 4096 + (16 * i) in
        check_agree ~lo:4096 ~n:(16 * 200)
          ([
             Var { h = 0; var = flag 3; size = 8 };
             Range { h = 0; var = flag 3; addr = flag 3 + 8; size = 8 };
             Fork;
           ]
          @ List.init 128 (fun i -> Var { h = 1; var = flag (127 - i); size = 8 })
          @ List.init 64 (fun i -> Var { h = 1; var = flag (128 + i); size = 4 })
          @ [
              Var { h = 1; var = flag 64 + 8; size = 8 };
              Range { h = 1; var = flag 64; addr = flag 64 + 8; size = 4 };
              Write { h = 1; defer = false; addr = flag 3; size = 24 };
              Write { h = 1; defer = false; addr = flag 64; size = 16 };
            ]));
  ]
  @ [ QCheck_alcotest.to_alcotest registry_model_prop ]

(* Build a trace programmatically and run the backend over it. *)
let mk_trace kinds =
  let t = Trace.create () in
  List.iter (fun (kind, loc) -> ignore (Trace.append t ~kind ~loc)) kinds;
  t

let base = Xfd_mem.Addr.pool_base

(* ---- the shadow store against the per-byte reference model ---- *)

module type STORE = sig
  type t

  val create : ?forensics:bool -> ?domain:Xfd_trace.Domain_model.t -> unit -> t
  val overlay : t -> t
  val rewind : t -> unit
  val write : t -> int -> int -> ts:int -> ev:int -> loc:Loc.t -> nt:bool -> post:bool -> unit
  val flush_line : t -> int -> ev:int -> [ `Had_modified | `Clean | `Waste of Pstate.flush_waste ]
  val fence : t -> ev:int -> unit
  val gpf : t -> ev:int -> unit
  val mark_alloc_raw : t -> int -> int -> ev:int -> unit
  val packed : t -> int -> int
  val tlast : t -> int -> int
  val writer : t -> int -> Loc.t
  val tracked_bytes : t -> int
  val pending_bytes : t -> int
  val fsm_counts : unit -> int list
end

module Shadow_store = struct
  include Shadow

  let fsm_counts () =
    List.map
      (fun n -> Option.value ~default:0 (Xfd_obs.Obs.counter_value ("shadow.fsm." ^ n)))
      [ "to_modified"; "to_writeback_pending"; "to_persisted"; "to_unmodified" ]
end

(* Operations act through the base handle or the newest overlay (the base
   before the first): an overlay that a rewind, a base mutation or a newer
   overlay retired must raise, in both stores. *)
type via = Base | Newest

type store_op =
  | S_write of { via : via; addr : int; size : int; nt : bool; post : bool; loc : int }
  | S_flush of { via : via; addr : int }
  | S_fence of via
  | S_gpf of via
  | S_alloc of { via : via; addr : int; size : int }
  | S_overlay
  | S_rewind

let via_to_string = function Base -> "base" | Newest -> "newest"

let store_op_to_string = function
  | S_write { via; addr; size; nt; post; loc } ->
    Printf.sprintf "%swrite%s %s %d+%d @L%d" (if nt then "nt-" else "") (if post then "/post" else "")
      (via_to_string via) addr size loc
  | S_flush { via; addr } -> Printf.sprintf "flush %s %d" (via_to_string via) addr
  | S_fence via -> "fence " ^ via_to_string via
  | S_gpf via -> "gpf " ^ via_to_string via
  | S_alloc { via; addr; size } -> Printf.sprintf "alloc %s %d+%d" (via_to_string via) addr size
  | S_overlay -> "overlay"
  | S_rewind -> "rewind"

(* Ranges start in [store_lo, store_lo + 256), which straddles the page
   boundary at 8192, and reach at most 512 bytes further. *)
let store_lo = 8192 - 128
let store_window = 256 + 512

(* Writers come from a small pool of locations shared by every operation,
   base and fork alike, so a write often names a location an earlier one
   (maybe a rewound fork's) named: physically the same value, as a
   program's call site is. *)
let store_locs = Array.init 3 (fun i -> Loc.make ~file:"store.ml" ~line:i)

module Store_transcript (S : STORE) = struct
  let guard f = match f () with v -> Some v | exception Invalid_argument _ -> None

  (* A handle's answers: its byte counts, then packed byte, [tlast] and
     writer of every byte of the window ([None] when reads raise). *)
  let view h =
    ( S.tracked_bytes h,
      S.pending_bytes h,
      guard (fun () ->
          List.init store_window (fun i ->
              let a = store_lo + i in
              (S.packed h a, S.tlast h a, S.writer h a))) )

  (* Run [ops] from an empty store.  After each operation: its answer
     ([None] when it raised), the FSM counter moves it caused, and the
     views of the base and of the newest overlay. *)
  let run ~domain ~forensics ops =
    let base = S.create ~forensics ~domain () in
    let newest = ref None in
    let via = function Base -> base | Newest -> Option.value ~default:base !newest in
    List.mapi
      (fun i op ->
        let before = S.fsm_counts () in
        let answer =
          guard (fun () ->
              match op with
              | S_write { via = v; addr; size; nt; post; loc } ->
                S.write (via v) addr size ~ts:i ~ev:i ~loc:store_locs.(loc) ~nt ~post;
                ""
              | S_flush { via = v; addr } -> (
                match S.flush_line (via v) (Xfd_mem.Addr.line_of addr) ~ev:i with
                | `Had_modified -> "had-modified"
                | `Clean -> "clean"
                | `Waste Pstate.Double_flush -> "double"
                | `Waste Pstate.Unnecessary_flush -> "unnecessary")
              | S_fence v ->
                S.fence (via v) ~ev:i;
                ""
              | S_gpf v ->
                S.gpf (via v) ~ev:i;
                ""
              | S_alloc { via = v; addr; size } ->
                S.mark_alloc_raw (via v) addr size ~ev:i;
                ""
              | S_overlay ->
                newest := Some (S.overlay base);
                ""
              | S_rewind ->
                Option.iter S.rewind !newest;
                "")
        in
        let moved = List.map2 ( - ) (S.fsm_counts ()) before in
        (answer, moved, view base, Option.map view !newest))
      ops
end

module Model_store_run = Store_transcript (Store_model)
module Shadow_store_run = Store_transcript (Shadow_store)

let describe_view name (mt, mp, mb) (rt, rp, rb) =
  if mt <> rt then Printf.sprintf "%s: tracked_bytes %d (model) vs %d" name mt rt
  else if mp <> rp then Printf.sprintf "%s: pending_bytes %d (model) vs %d" name mp rp
  else
    match (mb, rb) with
    | Some mb, Some rb ->
      let i = Option.get (first_diff 0 (List.combine mb rb)) in
      let show (p, tl, w) =
        Printf.sprintf "packed 0x%x tlast %d writer %s" p tl (Loc.to_string w)
      in
      Printf.sprintf "%s: byte %d: %s (model) vs %s" name (store_lo + i)
        (show (List.nth mb i)) (show (List.nth rb i))
    | _ -> Printf.sprintf "%s: reads raise in only one store" name

(* [Ok ()] when both stores answer alike after every operation, else
   where they first differ. *)
let stores_agree ~domain ~forensics ops =
  let steps =
    List.combine
      (Model_store_run.run ~domain ~forensics ops)
      (Shadow_store_run.run ~domain ~forensics ops)
  in
  match first_diff 0 steps with
  | None -> Ok ()
  | Some i ->
    let (ma, mm, mb, mo), (ra, rm, rb, ro) = List.nth steps i in
    let what =
      if ma <> ra then "answers differ (or only one raised)"
      else if mm <> rm then
        Printf.sprintf "FSM counter moves [%s] (model) vs [%s]"
          (String.concat "; " (List.map string_of_int mm))
          (String.concat "; " (List.map string_of_int rm))
      else if mb <> rb then describe_view "base" mb rb
      else
        match (mo, ro) with
        | Some mo, Some ro -> describe_view "overlay" mo ro
        | _ -> "only one store has an overlay"
    in
    Error
      (Printf.sprintf "%s: after op %d (%s): %s"
         (Xfd_trace.Domain_model.to_string domain)
         i
         (store_op_to_string (List.nth ops i))
         what)

let store_op_gen =
  let open QCheck.Gen in
  let addr =
    frequency
      [
        (3, map (fun i -> store_lo + i) (int_bound 255));
        (* ranges that start just below the page boundary *)
        (1, map (fun i -> 8192 - 16 + i) (int_bound 15));
      ]
  in
  let size =
    frequency
      [
        (4, oneofl [ 1; 2; 4; 8; 8; 16 ]);
        (2, int_range 1 64);
        (1, int_range 65 192);
        (1, int_range 193 512);
      ]
  in
  let via = frequency [ (2, return Base); (3, return Newest) ] in
  frequency
    [
      ( 6,
        map3
          (fun (via, nt, post) (addr, loc) size -> S_write { via; addr; size; nt; post; loc })
          (triple via (frequency [ (3, return false); (1, return true) ]) bool)
          (pair addr (int_bound (Array.length store_locs - 1)))
          size );
      (4, map2 (fun via addr -> S_flush { via; addr }) via addr);
      (2, map (fun v -> S_fence v) via);
      (1, map (fun v -> S_gpf v) via);
      (1, map3 (fun via addr size -> S_alloc { via; addr; size }) via addr size);
      (1, return S_overlay);
      (1, return S_rewind);
    ]

(* No [long_factor] here: the nightly job sets QCHECK_LONG_FACTOR. *)
let store_model_prop =
  QCheck.Test.make ~count:150
    ~name:"shadow store answers as the per-byte model, overlays and rewinds included"
    (QCheck.make
       ~print:(fun (domain, forensics, ops) ->
         Printf.sprintf "%s%s: %s"
           (Xfd_trace.Domain_model.to_string domain)
           (if forensics then " (forensics)" else "")
           (String.concat "; " (List.map store_op_to_string ops)))
       ~shrink:(fun (d, f, ops) yield -> QCheck.Shrink.list ops (fun ops -> yield (d, f, ops)))
       QCheck.Gen.(
         triple (oneofl Xfd_trace.Domain_model.all) bool (list_size (int_range 1 40) store_op_gen)))
    (fun (domain, forensics, ops) ->
      match stores_agree ~domain ~forensics ops with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let check_stores_agree domain ops =
  match stores_agree ~domain ~forensics:false ops with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let store_model_tests =
  [
    Tu.case "model agreement: a fork writes, flushes and fences across a page boundary"
      (fun () ->
        check_stores_agree Xfd_trace.Domain_model.Adr
          [
            S_write { via = Base; addr = 8150; size = 100; nt = false; post = false; loc = 0 };
            S_flush { via = Base; addr = 8150 };
            S_overlay;
            S_write { via = Newest; addr = 8180; size = 30; nt = true; post = true; loc = 1 };
            S_flush { via = Newest; addr = 8192 };
            S_fence Newest;
            S_alloc { via = Newest; addr = 8100; size = 120 };
            S_rewind;
            S_fence Base;
            S_flush { via = Newest; addr = 8192 };
          ]);
    Tu.case "model agreement: GPF drains what a fork wrote under CXL-GPF" (fun () ->
        check_stores_agree Xfd_trace.Domain_model.Cxl_gpf
          [
            S_write { via = Base; addr = 8170; size = 40; nt = false; post = false; loc = 2 };
            S_overlay;
            S_write { via = Newest; addr = 8186; size = 4; nt = false; post = true; loc = 0 };
            (* not post-written: the fork's GPF leaves it modified *)
            S_write { via = Newest; addr = 8200; size = 8; nt = false; post = false; loc = 1 };
            S_gpf Newest;
            S_flush { via = Newest; addr = 8186 };
            S_write { via = Base; addr = 8000; size = 8; nt = false; post = false; loc = 2 };
            S_gpf Newest;
            S_gpf Base;
          ]);
    Tu.case "model agreement: a fork's nt-store over a base-pending byte persists at its fence"
      (fun () ->
        (* The base leaves 8200..8207 writeback-pending under ADR; the
           fork's nt-store makes them its own, so its fence persists them
           and a later flush of the line is unnecessary, not a double
           flush.  The other models never leave a byte pending. *)
        List.iter
          (fun domain ->
            check_stores_agree domain
              [
                S_write { via = Base; addr = 8200; size = 8; nt = false; post = false; loc = 0 };
                S_write { via = Base; addr = 8208; size = 8; nt = true; post = false; loc = 1 };
                S_flush { via = Base; addr = 8200 };
                S_overlay;
                S_write { via = Newest; addr = 8200; size = 8; nt = true; post = true; loc = 2 };
                S_fence Newest;
                S_flush { via = Newest; addr = 8200 };
                S_write { via = Newest; addr = 8212; size = 8; nt = true; post = true; loc = 0 };
                S_gpf Newest;
                S_fence Newest;
              ])
          Xfd_trace.Domain_model.all);
  ]
  @ [ QCheck_alcotest.to_alcotest store_model_prop ]
  @ [
    Tu.case "model agreement: a base write reuses a rewound fork's last writer" (fun () ->
        (* The fork interns location 1 past the base's table; the rewind
           drops it, so the base's next write of location 1 must intern it
           again, or location 2 takes its slot. *)
        check_stores_agree Xfd_trace.Domain_model.Adr
          [
            S_write { via = Base; addr = 8100; size = 8; nt = false; post = false; loc = 0 };
            S_overlay;
            S_write { via = Newest; addr = 8150; size = 8; nt = false; post = true; loc = 1 };
            S_rewind;
            S_write { via = Base; addr = 8160; size = 8; nt = false; post = false; loc = 1 };
            S_write { via = Base; addr = 8170; size = 8; nt = false; post = false; loc = 2 };
          ]);
    Tu.case "model agreement: 512-byte fork writes over the page boundary, rewound" (fun () ->
        List.iter
          (fun domain ->
            check_stores_agree domain
              [
                S_write { via = Base; addr = 8064; size = 300; nt = false; post = false; loc = 0 };
                S_flush { via = Base; addr = 8192 };
                S_overlay;
                S_write { via = Newest; addr = 7936; size = 512; nt = true; post = true; loc = 1 };
                S_flush { via = Newest; addr = 8130 };
                S_write { via = Newest; addr = 8000; size = 512; nt = false; post = true; loc = 2 };
                S_alloc { via = Newest; addr = 8180; size = 40 };
                S_gpf Newest;
                S_fence Newest;
                S_rewind;
                S_flush { via = Base; addr = 8256 };
              ])
          Xfd_trace.Domain_model.all);
  ]

let detector_tests =
  [
    Tu.case "race detected on unflushed pre-failure write" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Write { addr = base; size = 8 }, l);
              (Event.Roi_end, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base; size = 8 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        match Detector.bugs fork with
        | [ Report.Race r ] ->
          Alcotest.(check int) "addr" base r.Report.addr;
          Alcotest.(check int) "size" 8 r.Report.size
        | bugs -> Alcotest.failf "expected one race, got %d findings" (List.length bugs));
    Tu.case "no race once flushed and fenced" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Write { addr = base; size = 8 }, l);
              (Event.Clwb { addr = base }, l);
              (Event.Sfence, l);
              (Event.Roi_end, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base; size = 8 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "clean" 0 (List.length (Detector.bugs fork)));
    Tu.case "flush without fence still races" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Write { addr = base; size = 8 }, l);
              (Event.Clwb { addr = base }, l);
              (Event.Roi_end, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base; size = 8 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "one race" 1 (List.length (Detector.bugs fork)));
    Tu.case "reads of commit variables are benign" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Commit_var { addr = base; size = 8 }, l);
              (Event.Roi_begin, l);
              (Event.Write { addr = base; size = 8 }, l);
              (Event.Roi_end, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base; size = 8 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "benign" 0 (List.length (Detector.bugs fork)));
    Tu.case "post-failure write shields subsequent reads" (fun () ->
        let pre =
          mk_trace [ (Event.Roi_begin, l); (Event.Write { addr = base; size = 8 }, l) ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace
            [
              (Event.Roi_begin, l2);
              (Event.Write { addr = base; size = 8 }, l2);
              (Event.Read { addr = base; size = 8 }, l2);
            ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "clean" 0 (List.length (Detector.bugs fork)));
    Tu.case "figure 11 walkthrough: race at F1, semantic bug at F2" (fun () ->
        (* Pre-failure: write backup (0x100,16); write valid (0x110,8);
           CLWB covers both (same line); SFENCE; write arr (0x200,8).
           valid is the commit variable of the backup. *)
        let b = base in
        let pre =
          mk_trace
            [
              (Event.Commit_var { addr = b + 0x10; size = 8 }, l);
              (Event.Commit_range { var = b + 0x10; addr = b; size = 16 }, l);
              (Event.Roi_begin, l);
              (Event.Write { addr = b; size = 16 }, l);
              (Event.Write { addr = b + 0x10; size = 8 }, l);
              (Event.Clwb { addr = b }, l);
              (Event.Sfence, l);
              (Event.Write { addr = b + 0x200; size = 8 }, l);
            ]
        in
        let post_reads =
          [
            (Event.Roi_begin, l2);
            (Event.Read { addr = b + 0x10; size = 8 }, l2) (* valid: benign *);
            (Event.Read { addr = b; size = 16 }, l2) (* backup *);
          ]
        in
        let d = Detector.create () in
        (* F1: right before the CLWB (events 0..4). *)
        Detector.replay d pre ~from:0 ~upto:5;
        let f1 = Detector.fork_for_post d in
        Detector.replay f1 (mk_trace post_reads) ~from:0 ~upto:max_int;
        (match Detector.bugs f1 with
        | [ Report.Race _ ] -> ()
        | bugs -> Alcotest.failf "F1: expected race, got %d findings" (List.length bugs));
        (* F2: after the fence and the arr write (all events). *)
        Detector.replay d pre ~from:5 ~upto:(Trace.length pre);
        let f2 = Detector.fork_for_post d in
        Detector.replay f2 (mk_trace post_reads) ~from:0 ~upto:max_int;
        match Detector.bugs f2 with
        | [ Report.Semantic s ] ->
          Alcotest.(check bool) "inconsistent" true
            (not (Cstate.is_consistent s.Report.status))
        | bugs -> Alcotest.failf "F2: expected semantic bug, got %d findings" (List.length bugs));
    Tu.case "uninitialised allocation read is a race" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Tx_alloc { addr = base; size = 64; zeroed = false }, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base + 8; size = 8 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        match Detector.bugs fork with
        | [ Report.Race r ] -> Alcotest.(check bool) "uninit" true r.Report.uninit
        | bugs -> Alcotest.failf "expected uninit race, got %d" (List.length bugs));
    Tu.case "zeroed allocation read is clean" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Tx_alloc { addr = base; size = 64; zeroed = true }, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base + 8; size = 8 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "clean" 0 (List.length (Detector.bugs fork)));
    Tu.case "duplicate TX_ADD is a performance bug" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Tx_begin, l);
              (Event.Tx_add { addr = base; size = 8 }, l);
              (Event.Tx_add { addr = base; size = 8 }, l2);
              (Event.Tx_commit, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        match Detector.bugs d with
        | [ Report.Perf p ] ->
          Alcotest.(check bool) "dup" true (p.Report.waste = `Duplicate_tx_add)
        | bugs -> Alcotest.failf "expected perf bug, got %d" (List.length bugs));
    Tu.case "same range in two transactions is fine" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Tx_begin, l);
              (Event.Tx_add { addr = base; size = 8 }, l);
              (Event.Tx_commit, l);
              (Event.Tx_begin, l);
              (Event.Tx_add { addr = base; size = 8 }, l);
              (Event.Tx_commit, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        Alcotest.(check int) "clean" 0 (List.length (Detector.bugs d)));
    Tu.case "skip_detection suppresses read checks but applies writes" (fun () ->
        let pre =
          mk_trace [ (Event.Roi_begin, l); (Event.Write { addr = base; size = 8 }, l) ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace
            [
              (Event.Roi_begin, l2);
              (Event.Skip_detection_begin, l2);
              (Event.Read { addr = base; size = 8 }, l2);
              (Event.Skip_detection_end, l2);
              (Event.Read { addr = base; size = 8 }, l2);
            ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        (* The skipped read consumed the first-read check?  No: the checked
           set is only marked when a check actually runs, so the later read
           still races. *)
        Alcotest.(check int) "one race" 1 (List.length (Detector.bugs fork)));
    Tu.case "reads outside the RoI are not checked" (fun () ->
        let pre =
          mk_trace [ (Event.Roi_begin, l); (Event.Write { addr = base; size = 8 }, l) ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post = mk_trace [ (Event.Read { addr = base; size = 8 }, l2) ] in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "clean" 0 (List.length (Detector.bugs fork)));
    Tu.case "timestamp advances per ordering point" (fun () ->
        let pre =
          mk_trace [ (Event.Sfence, l); (Event.Sfence, l); (Event.Mfence, l) ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        Alcotest.(check int) "three ticks" 3 (Detector.timestamp d));
    Tu.case "contiguous racy bytes coalesce into one report" (fun () ->
        let pre =
          mk_trace [ (Event.Roi_begin, l); (Event.Write { addr = base; size = 32 }, l) ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base; size = 32 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        match Detector.bugs fork with
        | [ Report.Race r ] -> Alcotest.(check int) "whole range" 32 r.Report.size
        | bugs -> Alcotest.failf "expected one coalesced race, got %d" (List.length bugs));
  ]

(* ---- post-failure forks share the base registry's state ---- *)

(* A TX-shaped pre-failure trace over three 512-byte undo-log entries
   (valid flag = commit variable, the rest = its range), of which the
   first two are used: each is written, persisted, then validated.  The
   run ends by invalidating entry 1 without a fence, so under
   [`Persist] that commit write is still deferred. *)
let log = base + 4096
let entry i = log + (512 * i)

let log_entry_events i =
  let e = entry i in
  [
    (Event.Commit_var { addr = e; size = 8 }, l);
    (Event.Commit_range { var = e; addr = e + 8; size = 504 }, l);
    (Event.Write { addr = e + 8; size = 16 }, l);
    (Event.Write { addr = e + 64; size = 32 }, l);
    (Event.Clwb { addr = e }, l);
    (Event.Clwb { addr = e + 64 }, l);
    (Event.Sfence, l);
    (Event.Write { addr = e; size = 8 }, l);
    (Event.Clwb { addr = e }, l);
    (Event.Sfence, l);
  ]

let tx_pre_trace () =
  mk_trace
    ([ (Event.Roi_begin, l); (Event.Tx_begin, l) ]
    @ log_entry_events 0 @ log_entry_events 1
    @ [
        (Event.Write { addr = base; size = 8 }, l);
        (Event.Clwb { addr = base }, l);
        (Event.Sfence, l);
        (Event.Write { addr = entry 0; size = 8 }, l);
        (Event.Clwb { addr = entry 0 }, l);
        (Event.Sfence, l);
        (Event.Tx_commit, l);
        (Event.Write { addr = entry 1; size = 8 }, l);
      ])

(* A recovery as [Tx.recover] does it: register every entry's flag, and
   the third entry's range too, then commit into entries 0 and 2. *)
let recovery_trace () =
  mk_trace
    ([ (Event.Roi_begin, l2) ]
    @ List.map (fun i -> (Event.Commit_var { addr = entry i; size = 8 }, l2)) [ 0; 1; 2 ]
    @ [
        (Event.Commit_range { var = entry 2; addr = entry 2 + 8; size = 504 }, l2);
        (Event.Read { addr = entry 0 + 8; size = 16 }, l2);
        (Event.Write { addr = entry 0; size = 8 }, l2);
        (Event.Write { addr = entry 2; size = 8 }, l2);
        (Event.Sfence, l2);
        (Event.Write { addr = entry 2; size = 8 }, l2);
        (Event.Sfence, l2);
      ])

(* The registry's answers over the three log entries. *)
let log_view d = Registry_run.answers ~lo:log ~n:(3 * 512) (Detector.registry d)

let fork_tests =
  [
    Tu.case "a fork's registrations and commits never reach the base" (fun () ->
        let pre = tx_pre_trace () in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let before = log_view d in
        let fork = Detector.fork_for_post d in
        let post = recovery_trace () in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "fork registered entry 2" 3
          (Registry.var_count (Detector.registry fork));
        Alcotest.(check bool) "fork committed entry 2" true
          (Registry.window_for (Detector.registry fork) (entry 2 + 8) <> Some None);
        Alcotest.(check bool) "base unchanged" true (log_view d = before);
        Detector.release d);
    Tu.case "successive forks from one base see identical registries" (fun () ->
        let pre = tx_pre_trace () in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let first = Detector.fork_for_post d in
        let at_fork = log_view first in
        let post = recovery_trace () in
        Detector.replay first post ~from:0 ~upto:(Trace.length post);
        (* Read before the next fork retires the first. *)
        let after_first = log_view first in
        let second = Detector.fork_for_post d in
        Alcotest.(check bool) "second fork starts where the first did" true
          (log_view second = at_fork);
        Detector.replay second post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check bool) "and ends where the first did" true
          (log_view second = after_first);
        Detector.release d);
    Tu.case "a persist-mode fork drops only its own deferred commits" (fun () ->
        let pre = tx_pre_trace () in
        let fence = mk_trace [ (Event.Sfence, l) ] in
        let run ~fork =
          let d = Detector.create ~commit_at:`Persist () in
          Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
          if fork then begin
            let f = Detector.fork_for_post d in
            let post = recovery_trace () in
            Detector.replay f post ~from:0 ~upto:(Trace.length post)
          end;
          Detector.replay d fence ~from:0 ~upto:1;
          let view = log_view d in
          Detector.release d;
          view
        in
        let forked = run ~fork:true in
        Alcotest.(check bool) "base applies its deferred commit" true
          (forked = run ~fork:false);
        (* Entry 1's invalidation landed at the final fence. *)
        let _, bytes = forked in
        let _, window, _ = List.nth bytes (512 + 8) in
        Alcotest.(check bool) "entry 1 committed twice" true
          (match window with Some (Some (prelast, _)) -> prelast >= 0 | _ -> false));
    Tu.case "a superseded fork can no longer be read or replayed" (fun () ->
        let pre = mk_trace [ (Event.Roi_begin, l); (Event.Write { addr = base; size = 8 }, l) ] in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let write off = mk_trace [ (Event.Write { addr = base + off; size = 1 }, l2) ] in
        let f1 = Detector.fork_for_post d in
        Detector.replay f1 (write 0) ~from:0 ~upto:1;
        let f2 = Detector.fork_for_post d in
        Detector.replay f2 (write 1) ~from:0 ~upto:1;
        let stale what f =
          match f () with
          | _ -> Alcotest.failf "%s through the superseded fork did not raise" what
          | exception Invalid_argument _ -> ()
        in
        stale "find" (fun () -> Shadow.find (Detector.shadow f1) (base + 1));
        stale "probe" (fun () -> Detector.probe f1 base);
        stale "replay" (fun () ->
            Detector.replay f1 (mk_trace [ (Event.Read { addr = base; size = 8 }, l2) ]) ~from:0
              ~upto:1);
        (match Detector.probe f2 (base + 1) with
        | Some c -> Alcotest.(check bool) "live fork reads its write" true c.Shadow.post_written
        | None -> Alcotest.fail "live fork lost its write");
        Detector.rewind f2;
        stale "find after rewind" (fun () -> Shadow.find (Detector.shadow f2) base);
        Detector.release d);
    Tu.case "every fork starts with an empty checked set" (fun () ->
        (* An unflushed write stays racy at both failure points; the second
           fork must check the read again, not remember the first fork's. *)
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Write { addr = base; size = 8 }, l);
              (Event.Write { addr = base + 0x100; size = 8 }, l);
              (Event.Clwb { addr = base + 0x100 }, l);
              (Event.Sfence, l);
            ]
        in
        let post = mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base; size = 8 }, l2) ] in
        let d = Detector.create () in
        let races () =
          let f = Detector.fork_for_post d in
          Detector.replay f post ~from:0 ~upto:(Trace.length post);
          List.length (List.filter Report.is_race (Detector.bugs f))
        in
        Detector.replay d pre ~from:0 ~upto:3;
        Alcotest.(check int) "race at the first point" 1 (races ());
        Detector.replay d pre ~from:3 ~upto:(Trace.length pre);
        Alcotest.(check int) "race again at the next point" 1 (races ());
        Alcotest.(check int) "and at a second fork of the same point" 1 (races ());
        Detector.release d);
    Tu.case "a superseded fork's registry raises on every call" (fun () ->
        let pre = tx_pre_trace () in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let calls r =
          [
            ("register_var", fun () -> Registry.register_var r ~var:(entry 2) ~size:8);
            ( "register_range",
              fun () -> Registry.register_range r ~var:(entry 2) ~addr:(entry 2 + 8) ~size:8 );
            ( "on_write",
              fun () -> Registry.on_write r ~defer:false ~addr:(entry 0) ~size:8 ~ts:1 ~ev:1 );
            ("apply_pending", fun () -> Registry.apply_pending r);
            ("drop_pending", fun () -> Registry.drop_pending r);
            ("is_commit_byte", fun () -> ignore (Registry.is_commit_byte r (entry 2)));
            ("window_for", fun () -> ignore (Registry.window_for r (entry 2 + 8)));
            ("frame_for", fun () -> ignore (Registry.frame_for r (entry 0 + 8)));
            ("var_count", fun () -> ignore (Registry.var_count r));
            ("fork", fun () -> ignore (Registry.fork r));
          ]
        in
        let stale why r =
          List.iter
            (fun (what, f) ->
              match f () with
              | () -> Alcotest.failf "%s through a fork retired by %s did not raise" what why
              | exception Invalid_argument _ -> ())
            (calls r)
        in
        let f1 = Detector.registry (Detector.fork_for_post d) in
        (* Fill both memos, so a retired fork cannot answer from them. *)
        List.iter (fun (_, f) -> f ()) (calls f1 |> List.filter (fun (w, _) -> w <> "fork"));
        let f2 = Detector.fork_for_post d in
        stale "a newer fork" f1;
        Alcotest.(check int) "the newer fork answers" 2 (Registry.var_count (Detector.registry f2));
        Detector.rewind f2;
        stale "its rewind" (Detector.registry f2);
        Detector.release d);
    Tu.case "a fork's 128 Tx.recover-shaped registrations leave the base unchanged" (fun () ->
        let pre = tx_pre_trace () in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let base = Detector.registry d in
        let before = log_view d and count = Registry.var_count base in
        (* Slots 127 down to 0, each flag registered and then read. *)
        let post =
          mk_trace
            ((Event.Roi_begin, l2)
            :: List.concat_map
                 (fun k ->
                   let e = entry (127 - k) in
                   [
                     (Event.Commit_var { addr = e; size = 8 }, l2);
                     (Event.Read { addr = e; size = 8 }, l2);
                   ])
                 (List.init 128 Fun.id))
        in
        let fork = Detector.fork_for_post d in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        let r = Detector.registry fork in
        Alcotest.(check int) "the fork holds every flag" 128 (Registry.var_count r);
        Alcotest.(check bool) "each flag is a commit byte in the fork" true
          (List.for_all (fun i -> Registry.is_commit_byte r (entry i + 7)) (List.init 128 Fun.id));
        Alcotest.(check int) "base var_count" count (Registry.var_count base);
        Alcotest.(check bool) "base answers" true (log_view d = before);
        Alcotest.(check bool) "an unused flag is no commit byte in the base" false
          (Registry.is_commit_byte base (entry 100));
        Detector.release d);
  ]

(* ---- a reused fork stops allocating ---- *)

(* The store and the base registry own the fork scratch (divergence
   journal, checked set, the registry's fork variables and segments), so
   after one warm-up fork has grown it, a fork + replay + rewind of the
   same recovery allocates nothing directly in the major heap (arrays past
   256 words would go there) and only small, short-lived minor blocks.
   On this 347-event B-Tree recovery the cycle measures 0.33 minor words
   per event: the fork's handles and one record per commit write (55.0
   while the fork registered its 131 log flags into the persistent
   registry's maps); the bound is about twice the figure.
   [Gc.minor_words] is exact; [Gc.counters]'s major count includes
   promoted words, hence the difference. *)
let minor_words_per_event_bound = 0.65

(* The store's write, flush, fence and GPF kernels work in place on the
   pages and their change log: once a warm-up has created the pages and
   grown the log, a base handle's mutations allocate nothing. *)
let store_step s =
  let lo = (4 * Xfd_mem.Shadow_pages.page_size) - 256 in
  for i = 0 to 63 do
    Shadow.write s (lo + (i * 8)) 8 ~ts:i ~ev:i ~loc:l ~nt:(i mod 16 = 0) ~post:false
  done;
  for i = 0 to 63 do
    ignore (Shadow.flush_line s (Xfd_mem.Addr.line_of (lo + (i * 8))) ~ev:i)
  done;
  Shadow.fence s ~ev:64;
  Shadow.gpf s ~ev:65

(* What a whole sequential detect promotes out of the minor heap, per post
   event.  Each post trace is replayed as soon as its run ends, through one
   reused buffer, so the events of a post run die young; what is left is
   mostly the pre-failure trace, which lives for the whole detect.  On a
   B-Tree detect (init 6, test 8: 19972 post events) this measures 3.4-3.5
   words per post event, against 9.9-10.1 when every post trace stayed
   alive until the replay phase; the bound is about twice the figure. *)
let promoted_words_per_post_event_bound = 7.0

(* A fresh detector's replay of a B-Tree pre-failure trace (init 6, test
   8; 19 shadow pages) allocates 163,880 words directly in the major heap
   when each page's cold fields are an [int] array and a [Loc.t] array of
   4096 entries (and the base fence's change log grows to a page's worth),
   and 78,120 with one 32 KiB [Bytes] column per page.  The bound is half
   the first figure. *)
let pre_replay_major_words_bound = 81_940.

(* A lint of a trace that writes, flushes and fences inside one page
   keeps that page's cold fields in one 64 KiB [Bytes] column, 8,193
   words: one [Lint.check_trace] allocates 8,194 words directly in the
   major heap.  Three scanned 4096-slot arrays per page (writer, write
   epoch, flush) made it 12,291.  The bound sits between the two. *)
let one_page_lint_major_words_bound = 10_000.

let one_page_trace () =
  let t = Xfd_trace.Trace.create () in
  let base = Xfd_mem.Addr.pool_base + (8 * Xfd_mem.Shadow_pages.page_size) in
  let add kind = ignore (Xfd_trace.Trace.append t ~kind ~loc:l) in
  add Xfd_trace.Event.Roi_begin;
  for i = 0 to 31 do
    let addr = base + (i * 64) in
    add (Xfd_trace.Event.Write { addr; size = 64 });
    add (Xfd_trace.Event.Clwb { addr });
    add Xfd_trace.Event.Sfence
  done;
  t

(* [Gc.minor_words] boxes its answer: the words one pair of calls costs. *)
let idle_minor_words () =
  let m = Gc.minor_words () in
  Gc.minor_words () -. m

let alloc_tests =
  [
    Tu.case "base-handle writes, flushes, fences and GPFs allocate nothing" (fun () ->
        List.iter
          (fun domain ->
            let s = Shadow.create ~domain () in
            store_step s;
            let idle = idle_minor_words () in
            let m0 = Gc.minor_words () in
            store_step s;
            let words = Gc.minor_words () -. m0 -. idle in
            Shadow.release s;
            Alcotest.(check (float 0.)) (Xfd_trace.Domain_model.to_string domain) 0. words)
          Xfd_trace.Domain_model.all);
    Tu.case "a warm fork's 128 flag registrations and their reads allocate nothing" (fun () ->
        (* A base holding the two undo-log entries a transaction used, then
           Tx.recover's registrations: every flag, slots 127 down to 0. *)
        let r = Registry.create () in
        List.iter
          (fun i -> Registry.register_range r ~var:(entry i) ~addr:(entry i + 8) ~size:504)
          [ 0; 1 ];
        let recover f =
          for slot = 127 downto 0 do
            Registry.register_var f ~var:(entry slot) ~size:8;
            if not (Registry.is_commit_byte f (entry slot + 4)) then
              Alcotest.failf "flag %d not registered" slot
          done
        in
        recover (Registry.fork r);
        let f = Registry.fork r in
        let idle = idle_minor_words () in
        let m0 = Gc.minor_words () in
        recover f;
        let words = Gc.minor_words () -. m0 -. idle in
        Alcotest.(check int) "every flag registered" 128 (Registry.var_count f);
        Alcotest.(check (float 0.)) "minor words" 0. words);
    Tu.case "a reused fork replays a B-Tree recovery without major allocation" (fun () ->
        let program = Xfd_workloads.Btree.program ~init_size:4 ~size:4 () in
        let _, pre, post = Xfd.Engine.run_once program in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let cycle () =
          let f = Detector.fork_for_post d in
          Detector.replay f post ~from:0 ~upto:(Trace.length post);
          Detector.rewind f
        in
        cycle ();
        let _, promoted0, major0 = Gc.counters () in
        let minor0 = Gc.minor_words () in
        cycle ();
        let minor1 = Gc.minor_words () in
        let _, promoted1, major1 = Gc.counters () in
        Detector.release d;
        Alcotest.(check (float 0.)) "direct major words" 0.
          (major1 -. major0 -. (promoted1 -. promoted0));
        let per_event = (minor1 -. minor0) /. float_of_int (Trace.length post) in
        if per_event > minor_words_per_event_bound then
          Alcotest.failf "%.2f minor words per post event (bound %.2f)" per_event
            minor_words_per_event_bound);
    Tu.case "a sequential B-Tree detect promotes a few words per post event" (fun () ->
        let program () = Xfd_workloads.Btree.program ~init_size:6 ~size:8 () in
        (* A warm-up fills the free lists a detect takes its pages from. *)
        ignore (Xfd.Engine.detect (program ()));
        Gc.minor ();
        let _, promoted0, _ = Gc.counters () in
        let o = Xfd.Engine.detect (program ()) in
        Gc.minor ();
        let _, promoted1, _ = Gc.counters () in
        let per_event = (promoted1 -. promoted0) /. float_of_int o.Xfd.Engine.post_events in
        if per_event > promoted_words_per_post_event_bound then
          Alcotest.failf "%.2f promoted words per post event (bound %.2f)" per_event
            promoted_words_per_post_event_bound);
    Tu.case "a warm tracking device's store, clwb, sfence and gpf allocate nothing" (fun () ->
        let module Device = Xfd_mem.Pm_device in
        let d = Device.create () in
        (* 64 bytes across a page boundary: two lines on two pages. *)
        let a = (2 * Xfd_mem.Image.chunk_size) - 24 and b = Bytes.make 64 'x' in
        let cycle () =
          Device.store d a b;
          Device.clwb d a;
          Device.clwb d (a + 63);
          Device.sfence d;
          Device.store d a b;
          Device.gpf d
        in
        cycle ();
        let idle = idle_minor_words () in
        let m0 = Gc.minor_words () in
        cycle ();
        let words = Gc.minor_words () -. m0 -. idle in
        Alcotest.(check int) "drained" 0 (Device.dirty_bytes d + Device.pending_bytes d);
        Device.release d;
        Alcotest.(check (float 0.)) "minor words" 0. words);
    Tu.case "a fresh detector's B-Tree pre-trace replay halves its direct major words" (fun () ->
        let program = Xfd_workloads.Btree.program ~init_size:6 ~size:8 () in
        let _, pre, _ = Xfd.Engine.run_once program in
        let replay () =
          let d = Detector.create () in
          Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
          d
        in
        (* A warm-up fills the free list the pages come from. *)
        Detector.release (replay ());
        let _, promoted0, major0 = Gc.counters () in
        let d = replay () in
        let _, promoted1, major1 = Gc.counters () in
        Detector.release d;
        let direct = major1 -. major0 -. (promoted1 -. promoted0) in
        if direct > pre_replay_major_words_bound then
          Alcotest.failf "%.0f direct major words (bound %.0f)" direct
            pre_replay_major_words_bound);
    Tu.case "a one-page lint allocates one column, not three page arrays" (fun () ->
        let trace = one_page_trace () in
        (* A warm-up fills the free list the packed page comes from. *)
        ignore (Xfd_lint.Lint.check_trace trace);
        let _, promoted0, major0 = Gc.counters () in
        let r = Xfd_lint.Lint.check_trace trace in
        let _, promoted1, major1 = Gc.counters () in
        Alcotest.(check bool) "clean" true (Xfd_lint.Lint.clean r);
        let direct = major1 -. major0 -. (promoted1 -. promoted0) in
        if direct > one_page_lint_major_words_bound then
          Alcotest.failf "%.0f direct major words (bound %.0f)" direct
            one_page_lint_major_words_bound);
    Tu.case "a warm fork's 256-byte write, clwb, sfence and rewind allocate nothing" (fun () ->
        let s = Shadow.create () in
        (* 256 bytes across a page boundary, over base bytes of all kinds:
           persisted, modified and never written. *)
        let a = (2 * Xfd_mem.Shadow_pages.page_size) - 100 in
        Shadow.write s (a - 64) 128 ~ts:0 ~ev:0 ~loc:l ~nt:false ~post:false;
        ignore (Shadow.flush_line s (a - 64) ~ev:1);
        Shadow.fence s ~ev:2;
        Shadow.write s (a + 64) 64 ~ts:1 ~ev:3 ~loc:l2 ~nt:false ~post:false;
        let cycle f =
          Shadow.write f a 256 ~ts:2 ~ev:4 ~loc:l2 ~nt:false ~post:true;
          for k = 0 to 4 do
            ignore (Shadow.flush_line f (Xfd_mem.Addr.line_of (a + (64 * k))) ~ev:5)
          done;
          Shadow.fence f ~ev:6;
          Shadow.rewind f
        in
        cycle (Shadow.overlay s);
        let f = Shadow.overlay s in
        let idle = idle_minor_words () in
        let m0 = Gc.minor_words () in
        cycle f;
        let words = Gc.minor_words () -. m0 -. idle in
        Alcotest.(check int) "the base is back" 0 (Shadow.pending_bytes s);
        Alcotest.(check int) "tlast restored" 1 (Shadow.tlast s (a + 64));
        Shadow.release s;
        Alcotest.(check (float 0.)) "minor words" 0. words);
  ]

let suite =
  [
    ("core.pstate", pstate_tests);
    ("core.cstate", cstate_tests);
    ("core.shadow", shadow_tests);
    ("core.registry", registry_tests @ registry_model_tests);
    ("core.store", store_model_tests);
    ("core.detector", detector_tests);
    ("core.fork", fork_tests);
    ("core.alloc", alloc_tests);
  ]
