module Rng = Xfd_util.Rng
module Report = Xfd.Report
module Obs = Xfd_obs.Obs
module D = Xfd_trace.Domain_model

let c_programs = Obs.Counter.make "fuzz.programs"
let c_divergences = Obs.Counter.make "fuzz.divergences"
let c_meta_failures = Obs.Counter.make "fuzz.meta_failures"
let c_shrink_evals = Obs.Counter.make "fuzz.shrink_evals"
let c_repros = Obs.Counter.make "fuzz.repros"
let c_corpus_failures = Obs.Counter.make "fuzz.corpus_failures"
let c_lint_misses = Obs.Counter.make "fuzz.lint_misses"

type cfg = {
  seed : int;
  budget : int;
  profile : Gen.profile;
  corpus_dir : string option;
  max_repros : int;
  shrink_budget : int;
}

let default_cfg =
  {
    seed = 42;
    budget = 200;
    profile = Gen.Buggy;
    corpus_dir = None;
    max_repros = 5;
    shrink_budget = 400;
  }

type summary = {
  programs : int;
  divergences : int;
  meta_failures : int;
  buggy_programs : int;
  unique_key_sets : int;
  repros : string list;
  shrink_evals : int;
  corpus_checked : int;
  corpus_failures : int;
  lint_misses : int;
}

let clean s = s.divergences = 0 && s.meta_failures = 0 && s.corpus_failures = 0

(* Per-program rng: a pure function of (seed, index), so verdicts for
   program [i] do not depend on the budget or on earlier programs. *)
let prog_rng seed i =
  Rng.create
    (Int64.logxor
       (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L)
       (Int64.of_int i))

let detect_keys p =
  let o = Xfd.Engine.detect (Prog.to_program p) in
  (Oracle.keys_of_outcome o, o)

(* Read sites (as location strings) flagged by correctness findings —
   the quantity metamorphic M1 is monotone in. *)
let read_sites (o : Xfd.Engine.outcome) =
  List.filter_map
    (function
      | Report.Race { read_loc; _ } | Report.Semantic { read_loc; _ } ->
        Some (Xfd_util.Loc.to_string read_loc)
      | Report.Perf _ | Report.Post_failure_error _ -> None)
    o.Xfd.Engine.unique_bugs
  |> List.sort_uniq String.compare

let fresh_id p =
  1 + List.fold_left (fun m (id, _) -> max m id) 0 p.Prog.ops

(* M1: insert a redundant CLWB of an already-stored slot immediately before
   an existing fence — no new ordering point is created, so no state the
   original never exposed becomes visible. *)
let transform_flush rng p =
  let ops = Array.of_list p.Prog.ops in
  let fences =
    Array.to_list ops
    |> List.mapi (fun i (_, op) -> (i, op))
    |> List.filter_map (fun (i, op) -> if op = Prog.Fence then Some i else None)
  in
  match fences with
  | [] -> None
  | _ ->
    let fi = List.nth fences (Rng.int rng (List.length fences)) in
    let stored =
      Array.to_list (Array.sub ops 0 fi)
      |> List.filter_map (function
           | _, Prog.Store { slot; _ } -> Some slot
           | _ -> None)
    in
    (match stored with
    | [] -> None
    | _ ->
      let slot = List.nth stored (Rng.int rng (List.length stored)) in
      let ins = (fresh_id p, Prog.Flush { slot; opt = false }) in
      let ops' =
        List.concat
          [
            Array.to_list (Array.sub ops 0 fi);
            [ ins ];
            Array.to_list (Array.sub ops fi (Array.length ops - fi));
          ]
      in
      Some { p with Prog.ops = ops' })

let op_lines = function
  | Prog.Store { slot; _ } -> [ Xfd_mem.Addr.line_of (Prog.slot_addr slot) ]
  | Prog.Flush { slot; _ } -> [ Xfd_mem.Addr.line_of (Prog.slot_addr slot) ]
  | Prog.Read { slot; n } | Prog.Tx_add { slot; n } ->
    Xfd_mem.Addr.lines_spanning (Prog.slot_addr slot) (n * Prog.slot_size)
  | Prog.Fence | Prog.Tx_begin | Prog.Tx_commit -> []

let swappable = function
  | Prog.Store _ | Prog.Flush _ | Prog.Read _ | Prog.Tx_add _ -> true
  | Prog.Fence | Prog.Tx_begin | Prog.Tx_commit -> false

(* M2: swap one adjacent pair of independent ops (both line-disjoint and
   fenceless kinds) — detection is insensitive to intra-epoch order of
   operations on distinct cache lines. *)
let transform_swap rng p =
  let ops = Array.of_list p.Prog.ops in
  let candidates = ref [] in
  for i = 0 to Array.length ops - 2 do
    let _, a = ops.(i) and _, b = ops.(i + 1) in
    if
      swappable a && swappable b
      && List.for_all (fun l -> not (List.mem l (op_lines b))) (op_lines a)
    then candidates := i :: !candidates
  done;
  match !candidates with
  | [] -> None
  | cs ->
    let cs = List.rev cs in
    let i = List.nth cs (Rng.int rng (List.length cs)) in
    let tmp = ops.(i) in
    ops.(i) <- ops.(i + 1);
    ops.(i + 1) <- tmp;
    Some { p with Prog.ops = Array.to_list ops }

let subset a b = List.for_all (fun x -> List.mem x b) a

let key_sig keys = String.concat "|" keys

let lint_of q = Xfd_lint.Lint.check_prog (Prog.to_program q)

let lint_in domain q =
  Xfd_lint.Lint.check_prog
    ~config:{ Xfd.Config.default with Xfd.Config.domain }
    (Prog.to_program q)

let error_keys (r : Xfd_lint.Lint.report) =
  List.filter_map
    (fun (f : Xfd_lint.Lint.finding) ->
      if f.Xfd_lint.Lint.severity = Xfd_lint.Lint.Error then
        Some (Xfd_lint.Lint.finding_key f)
      else None)
    r.Xfd_lint.Lint.findings

(* Dynamically-confirmed races the linter did not anticipate.  Misses are
   expected by design (a transient unfenced window leaves no end-of-trace
   evidence) — the fuzzer records them as corpus repros so the static-miss
   frontier stays visible, but they never fail a run. *)
let missed_race_keys report (o : Xfd.Engine.outcome) =
  let t = Xfd_lint.Lint.triage_of ~program:"fuzz" report o in
  List.filter_map
    (fun (k, b, ids) -> if ids = [] && Report.is_race b then Some k else None)
    t.Xfd_lint.Lint.dynamic

let run ?(out = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())) cfg =
  let divergences = ref 0 and meta_failures = ref 0 and buggy = ref 0 in
  let shrink_evals = ref 0 and repros = ref [] in
  let lint_misses = ref 0 and lint_saved = ref 0 in
  let seen_sigs = Hashtbl.create 32 in
  let seen_misses = Hashtbl.create 8 in
  let harvested = ref 0 in
  let save_repro keys p =
    match cfg.corpus_dir with
    | None -> ()
    | Some dir ->
      let path = Corpus.save ~dir ~keys p in
      Obs.Counter.incr c_repros;
      repros := path :: !repros;
      Format.fprintf out "repro saved: %s@." path
  in
  let shrink_and_save ~what ~keep p =
    (* The predicate may legitimately reject the input when the violation
       depends on rng-free re-execution; guard rather than crash. *)
    let minimized, evals =
      if keep p then Shrink.minimize ~max_evals:cfg.shrink_budget ~keep p else (p, 0)
    in
    shrink_evals := !shrink_evals + evals;
    Obs.Counter.add c_shrink_evals evals;
    Format.fprintf out "%s: shrunk %d -> %d ops@." what (Prog.size p) (Prog.size minimized);
    (* Expectations always come from replaying the program actually saved,
       so [Corpus.check] on the file is self-consistent even when shrinking
       changed the key set (divergence and metamorphic repros). *)
    save_repro (fst (detect_keys minimized)) minimized
  in
  (* -- corpus regression pass -- *)
  let corpus_files =
    match cfg.corpus_dir with None -> [] | Some dir -> Corpus.files ~dir
  in
  let corpus_failures = ref 0 in
  List.iter
    (fun f ->
      match Corpus.check f with
      | Ok () -> ()
      | Error e ->
        incr corpus_failures;
        Obs.Counter.incr c_corpus_failures;
        Format.fprintf out "corpus failure: %s@." e)
    corpus_files;
  (* -- main loop -- *)
  for i = 0 to cfg.budget - 1 do
    Obs.Counter.incr c_programs;
    let rng = prog_rng cfg.seed i in
    let p = Gen.generate cfg.profile rng in
    let keys, o = detect_keys p in
    let oracle = Oracle.run p in
    (* The pre-failure trace does not depend on the domain model: [p] is
       traced once, and each model's lint report computed at most once. *)
    let trace = lazy (Xfd_lint.Lint.pre_trace (Prog.to_program p)) in
    let reports =
      List.map
        (fun m -> (m, lazy (Xfd_lint.Lint.check_trace ~domain:m (Lazy.force trace))))
        D.all
    in
    let report_in m = Lazy.force (List.assoc m reports) in
    let diverges q =
      let k, o = detect_keys q in
      let r = Oracle.run q in
      k <> r.Oracle.keys || o.Xfd.Engine.failure_points <> r.Oracle.failure_points
    in
    if keys <> oracle.Oracle.keys || o.Xfd.Engine.failure_points <> oracle.Oracle.failure_points
    then begin
      incr divergences;
      Obs.Counter.incr c_divergences;
      Format.fprintf out
        "divergence at program %d: engine [%s] (%d fps) vs oracle [%s] (%d fps)@." i
        (String.concat "; " keys) o.Xfd.Engine.failure_points
        (String.concat "; " oracle.Oracle.keys)
        oracle.Oracle.failure_points;
      shrink_and_save ~what:"divergence" ~keep:diverges p
    end
    else begin
      if keys <> [] then incr buggy;
      (* Profile check: correct programs must be finding-free. *)
      if cfg.profile = Gen.Correct && keys <> [] then begin
        incr meta_failures;
        Obs.Counter.incr c_meta_failures;
        Format.fprintf out "correct-profile violation at program %d: [%s]@." i
          (String.concat "; " keys);
        shrink_and_save ~what:"correct-profile violation"
          ~keep:(fun q -> fst (detect_keys q) <> [])
          p
      end;
      (* M4: correct-profile programs must also lint clean — the static
         analyzer may under-approximate the dynamic detector but must never
         indict a well-formed persistence protocol. *)
      (if cfg.profile = Gen.Correct then
         let r = report_in D.Adr in
         if not (Xfd_lint.Lint.clean r) then begin
           incr meta_failures;
           Obs.Counter.incr c_meta_failures;
           Format.fprintf out "metamorphic M4 violation at program %d: correct profile linted [%s]@."
             i
             (String.concat "; "
                (List.map Xfd_lint.Lint.finding_key r.Xfd_lint.Lint.findings));
           shrink_and_save ~what:"M4 violation"
             ~keep:(fun q -> not (Xfd_lint.Lint.clean (lint_of q)))
             p
         end);
      (* M5: the persistence-domain models preserve the correct/buggy
         frontier.  A correct-profile program has no error-severity finding
         under ANY model (eADR turning its flushes into waste warnings is
         the expected reinterpretation, not a bug); and on every program,
         eADR only demotes — it must never report an error-severity key
         that ADR does not already report. *)
      (if cfg.profile = Gen.Correct then
         List.iter
           (fun m ->
             let errs = error_keys (report_in m) in
             if errs <> [] then begin
               incr meta_failures;
               Obs.Counter.incr c_meta_failures;
               Format.fprintf out
                 "metamorphic M5 violation at program %d: correct profile has error \
                  findings under %s [%s]@."
                 i
                 (D.to_string m)
                 (String.concat "; " errs);
               shrink_and_save ~what:"M5 violation"
                 ~keep:(fun q -> error_keys (lint_in m q) <> [])
                 p
             end)
           (List.filter (fun m -> m <> D.Adr) D.all));
      (let added_to adr eadr =
         let adr = error_keys adr in
         List.filter (fun k -> not (List.mem k adr)) (error_keys eadr)
       in
       let eadr_added q = added_to (lint_of q) (lint_in D.Eadr q) in
       let added = added_to (report_in D.Adr) (report_in D.Eadr) in
       if added <> [] then begin
         incr meta_failures;
         Obs.Counter.incr c_meta_failures;
         Format.fprintf out
           "metamorphic M5 violation at program %d: eADR added error findings [%s]@." i
           (String.concat "; " added);
         shrink_and_save ~what:"M5 violation" ~keep:(fun q -> eadr_added q <> []) p
       end);
      (* M1: redundant flush insertion. *)
      (match transform_flush rng p with
      | None -> ()
      | Some p' ->
        let sites = read_sites o in
        let _, o' = detect_keys p' in
        if not (subset (read_sites o') sites) then begin
          incr meta_failures;
          Obs.Counter.incr c_meta_failures;
          Format.fprintf out
            "metamorphic M1 violation at program %d: inserted flush flagged new sites [%s]@."
            i
            (String.concat "; "
               (List.filter (fun s -> not (List.mem s sites)) (read_sites o')));
          shrink_and_save ~what:"M1 violation" ~keep:(fun _ -> false) p'
        end);
      (* M2: independent adjacent swap. *)
      (match transform_swap rng p with
      | None -> ()
      | Some p' ->
        let keys', _ = detect_keys p' in
        if keys' <> keys then begin
          incr meta_failures;
          Obs.Counter.incr c_meta_failures;
          Format.fprintf out
            "metamorphic M2 violation at program %d: swap changed keys [%s] -> [%s]@." i
            (String.concat "; " keys) (String.concat "; " keys');
          shrink_and_save ~what:"M2 violation" ~keep:(fun _ -> false) p'
        end);
      (* Harvest: first program per new verdict signature becomes a repro. *)
      if keys <> [] && cfg.profile <> Gen.Correct then begin
        let s = key_sig keys in
        if (not (Hashtbl.mem seen_sigs s)) && !harvested < cfg.max_repros then begin
          Hashtbl.replace seen_sigs s ();
          incr harvested;
          shrink_and_save ~what:(Printf.sprintf "bug repro (program %d)" i)
            ~keep:(fun q -> fst (detect_keys q) = keys)
            p
        end
        else Hashtbl.replace seen_sigs s ()
      end;
      (* Static-miss harvest: a real race the linter did not anticipate is
         exactly the evidence against pruning by lint — shrink and keep
         it (small per-run cap; saving re-evaluates lint + detection). *)
      if keys <> [] && List.exists Report.is_race o.Xfd.Engine.unique_bugs then begin
        let missed = missed_race_keys (report_in D.Adr) o in
        if missed <> [] then begin
          incr lint_misses;
          Obs.Counter.incr c_lint_misses;
          let s = key_sig missed in
          if (not (Hashtbl.mem seen_misses s)) && !lint_saved < 3 then begin
            Hashtbl.replace seen_misses s ();
            incr lint_saved;
            Format.fprintf out "lint static miss at program %d: [%s]@." i
              (String.concat "; " missed);
            shrink_and_save ~what:"lint static miss"
              ~keep:(fun q ->
                let _, o' = detect_keys q in
                missed_race_keys (lint_of q) o' <> [])
              p
          end
          else Hashtbl.replace seen_misses s ()
        end
      end
    end
  done;
  {
    programs = cfg.budget;
    divergences = !divergences;
    meta_failures = !meta_failures;
    buggy_programs = !buggy;
    unique_key_sets = Hashtbl.length seen_sigs;
    repros = List.rev !repros;
    shrink_evals = !shrink_evals;
    corpus_checked = List.length corpus_files;
    corpus_failures = !corpus_failures;
    lint_misses = !lint_misses;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "fuzz: %d program(s), %d with findings, %d distinct verdict set(s)@.corpus: %d checked, \
     %d failure(s)@.violations: %d divergence(s), %d metamorphic failure(s)@.lint: %d \
     program(s) with a statically-missed race@.shrinking: %d evaluation(s), %d repro(s) \
     saved@."
    s.programs s.buggy_programs s.unique_key_sets s.corpus_checked s.corpus_failures
    s.divergences s.meta_failures s.lint_misses s.shrink_evals (List.length s.repros)
