module Loc = Xfd_util.Loc
module Provenance = Xfd_forensics.Provenance

type race = {
  addr : Xfd_mem.Addr.t;
  size : int;
  read_loc : Loc.t;
  write_loc : Loc.t;
  uninit : bool;
  provenance : Provenance.t option;
}

type semantic = {
  addr : Xfd_mem.Addr.t;
  size : int;
  read_loc : Loc.t;
  write_loc : Loc.t;
  status : Cstate.t;
  provenance : Provenance.t option;
}

type perf = {
  addr : Xfd_mem.Addr.t;
  loc : Loc.t;
  waste : [ `Flush of Pstate.flush_waste | `Duplicate_tx_add ];
  provenance : Provenance.t option;
}

type bug =
  | Race of race
  | Semantic of semantic
  | Perf of perf
  | Post_failure_error of { exn : string; failure_point : int }

type failure_report = { failure_point : int; trace_pos : int; bugs : bug list }

let is_race = function Race _ -> true | Semantic _ | Perf _ | Post_failure_error _ -> false
let is_semantic = function Semantic _ -> true | Race _ | Perf _ | Post_failure_error _ -> false
let is_perf = function Perf _ -> true | Race _ | Semantic _ | Post_failure_error _ -> false

let is_post_error = function
  | Post_failure_error _ -> true
  | Race _ | Semantic _ | Perf _ -> false

let provenance = function
  | Race { provenance; _ } | Semantic { provenance; _ } | Perf { provenance; _ } ->
    provenance
  | Post_failure_error _ -> None

(* The fields that define a bug's *identity*: kind, program points and the
   kind-specific qualifier.  Everything else — addr, size and in particular
   the provenance chain — is deliberately never inspected here, so enabling
   forensics (--explain) cannot perturb deduplication by construction: the
   key is derived from this projection and nothing else. *)
let identity = function
  | Race { read_loc; write_loc; uninit; _ } ->
    (`Race, Loc.to_string read_loc, Loc.to_string write_loc, string_of_bool uninit)
  | Semantic { read_loc; write_loc; status; _ } ->
    (`Semantic, Loc.to_string read_loc, Loc.to_string write_loc, Cstate.to_string status)
  | Perf { loc; waste; _ } ->
    let w =
      match waste with
      | `Flush Pstate.Double_flush -> "double-flush"
      | `Flush Pstate.Unnecessary_flush -> "unnecessary-flush"
      | `Duplicate_tx_add -> "duplicate-tx-add"
    in
    (`Perf, Loc.to_string loc, "", w)
  | Post_failure_error { exn; _ } -> (`Post_error, exn, "", "")

let dedup_key bug =
  match identity bug with
  | `Race, r, w, uninit -> Printf.sprintf "race:%s:%s:%s" r w uninit
  | `Semantic, r, w, status -> Printf.sprintf "semantic:%s:%s:%s" r w status
  | `Perf, l, _, w -> Printf.sprintf "perf:%s:%s" l w
  | `Post_error, exn, _, _ -> Printf.sprintf "post-error:%s" exn

let pp_bug ppf = function
  | Race { addr; size; read_loc; write_loc; uninit; _ } ->
    Format.fprintf ppf "CROSS-FAILURE RACE%s: post-failure read at %a of %a+%d; last pre-failure writer %a"
      (if uninit then " (uninitialised allocation)" else "")
      Loc.pp read_loc Xfd_mem.Addr.pp addr size Loc.pp write_loc
  | Semantic { addr; size; read_loc; write_loc; status; _ } ->
    Format.fprintf ppf
      "CROSS-FAILURE SEMANTIC BUG (%a): post-failure read at %a of %a+%d; last pre-failure writer %a"
      Cstate.pp status Loc.pp read_loc Xfd_mem.Addr.pp addr size Loc.pp write_loc
  | Perf { addr; loc; waste; _ } ->
    let w =
      match waste with
      | `Flush Pstate.Double_flush -> "redundant writeback (line already pending)"
      | `Flush Pstate.Unnecessary_flush -> "unnecessary writeback (line clean)"
      | `Duplicate_tx_add -> "duplicated TX_ADD for the same object"
    in
    Format.fprintf ppf "PERFORMANCE BUG: %s at %a (%a)" w Loc.pp loc Xfd_mem.Addr.pp addr
  | Post_failure_error { exn; failure_point } ->
    Format.fprintf ppf "POST-FAILURE ERROR at failure point %d: %s" failure_point exn

let pp_bug_explained ppf bug =
  Format.fprintf ppf "%a@." pp_bug bug;
  match provenance bug with
  | None -> ()
  | Some p ->
    (* Indent the chain under the bug line. *)
    let body = Format.asprintf "%a" Provenance.pp p in
    String.split_on_char '\n' body
    |> List.iter (fun line -> if line <> "" then Format.fprintf ppf "    %s@." line)

let loc_json (loc : Loc.t) =
  Xfd_util.Json.Obj [ ("file", Xfd_util.Json.Str loc.Loc.file); ("line", Xfd_util.Json.Int loc.Loc.line) ]

let provenance_json = function
  | None -> []
  | Some p -> [ ("provenance", Provenance.to_json p) ]

let bug_to_json bug =
  let open Xfd_util.Json in
  match bug with
  | Race { addr; size; read_loc; write_loc; uninit; provenance } ->
    Obj
      ([
         ("kind", Str "cross-failure-race");
         ("uninitialised", Bool uninit);
         ("addr", Str (Printf.sprintf "0x%x" addr));
         ("size", Int size);
         ("read", loc_json read_loc);
         ("last_writer", loc_json write_loc);
       ]
      @ provenance_json provenance)
  | Semantic { addr; size; read_loc; write_loc; status; provenance } ->
    Obj
      ([
         ("kind", Str "cross-failure-semantic-bug");
         ("status", Str (Cstate.to_string status));
         ("addr", Str (Printf.sprintf "0x%x" addr));
         ("size", Int size);
         ("read", loc_json read_loc);
         ("last_writer", loc_json write_loc);
       ]
      @ provenance_json provenance)
  | Perf { addr; loc; waste; provenance } ->
    let w =
      match waste with
      | `Flush Pstate.Double_flush -> "redundant-writeback"
      | `Flush Pstate.Unnecessary_flush -> "unnecessary-writeback"
      | `Duplicate_tx_add -> "duplicate-tx-add"
    in
    Obj
      ([
         ("kind", Str "performance-bug");
         ("waste", Str w);
         ("addr", Str (Printf.sprintf "0x%x" addr));
         ("at", loc_json loc);
       ]
      @ provenance_json provenance)
  | Post_failure_error { exn; failure_point } ->
    Obj
      [
        ("kind", Str "post-failure-error");
        ("exception", Str exn);
        ("failure_point", Int failure_point);
      ]

let failure_report_to_json { failure_point; trace_pos; bugs } =
  Xfd_util.Json.Obj
    [
      ("failure_point", Xfd_util.Json.Int failure_point);
      ("trace_pos", Xfd_util.Json.Int trace_pos);
      ("bugs", Xfd_util.Json.Arr (List.map bug_to_json bugs));
    ]
