(* Seeded workload inputs.  Everything a run feeds the system is a pure
   function of the workload and the seed; the system never sees the seed.

   Sizes are drawn in antithetic pairs: two programs of one kind get sizes
   [a] and [lo + hi - a], so every seed does the same total work per kind
   while the individual programs differ.  That keeps a run's cost
   comparable across seeds without fixing the inputs. *)

module Rng = Xfd_util.Rng
module Json = Xfd_util.Json
module Workload_set = Xfd_experiments.Workload_set

let rng ~seed salt =
  Rng.create
    (Int64.add
       (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L)
       (Int64.of_int (Hashtbl.hash salt)))

let antithetic rng (lo, hi) =
  let a = lo + Rng.int rng (hi - lo + 1) in
  (a, lo + hi - a)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- detection and lint programs ---- *)

type prog = { workload : string; init : int; test : int }

let label p = Printf.sprintf "%s init=%d test=%d" p.workload p.init p.test
let program p = (Workload_set.find p.workload).Workload_set.make ~init:p.init ~test:p.test

let pairs rng kinds ~init ~test =
  List.concat_map
    (fun workload ->
      let i1, i2 = antithetic rng init in
      let t1, t2 = antithetic rng test in
      [ { workload; init = i1; test = t1 }; { workload; init = i2; test = t2 } ])
    kinds

let names entries = List.map (fun (e : Workload_set.entry) -> e.Workload_set.name) entries

(* Sizes are chosen so that a 15 s window holds 20 to 50 rounds.  Larger
   programs have more failure points but the same shape per failure point
   (post-failure events, phase shares); README.md gives both. *)
let detect_tx seed =
  pairs (rng ~seed "detect-tx")
    [ "B-Tree"; "C-Tree"; "RB-Tree"; "Hashmap-TX"; "Redis" ]
    ~init:(4, 8) ~test:(6, 10)

let detect_fig12 seed =
  pairs (rng ~seed "detect-fig12") [ "Hashmap-Atomic"; "Memcached" ] ~init:(10, 14)
    ~test:(24, 40)

let lint seed = pairs (rng ~seed "lint-domains") (names Workload_set.all) ~init:(24, 40) ~test:(96, 160)

(* ---- fuzz batches ---- *)

type batch = { batch_seed : int; budget : int }

(* Each program is checked on its own, so the batch size changes only how
   often [Fuzz.run]'s small per-batch work recurs. *)
let batches = 8
let batch_budget = 50

let fuzz seed =
  List.init batches (fun b -> { batch_seed = (seed * 1000) + b; budget = batch_budget })

let batch_label b = Printf.sprintf "batch seed=%d budget=%d" b.batch_seed b.budget

(* ---- service jobs ---- *)

(* A job is a small micro-benchmark run.  The job mix is fixed: per micro
   kind, three clean sizes and one run with a seeded bug patch that also
   asks for forensics (one job in four).  What the seed draws is the
   traffic: when each job is sent and in which order the mix cycles. *)
type job = { prog : prog; patch : string option }

let job_label j =
  match j.patch with None -> label j.prog | Some p -> label j.prog ^ " patch=" ^ p

let job_body ?engine j =
  Json.Obj
    ([
       ("kind", Json.Str "workload");
       ("workload", Json.Str j.prog.workload);
       ("init", Json.Int j.prog.init);
       ("test", Json.Int j.prog.test);
       ("forensics", Json.Bool (j.patch <> None));
     ]
    @ (match j.patch with None -> [] | Some p -> [ ("patch", Json.Str p) ])
    @ match engine with None -> [] | Some e -> [ ("engine", Json.Str e) ])

let serve_pool =
  List.concat_map
    (fun (workload, patch) ->
      let job init test patch = { prog = { workload; init; test }; patch } in
      [ job 1 1 None; job 2 1 None; job 1 2 None; job 2 2 (Some patch) ])
    [
      ("B-Tree", "skip-tx-add=0");
      ("C-Tree", "skip-flush=1");
      ("RB-Tree", "dup-flush=0");
      ("Hashmap-TX", "skip-fence=0");
      ("Hashmap-Atomic", "skip-flush=0");
    ]

(* One clean job of each micro kind: the warm-up. *)
let warmup_jobs = List.filteri (fun i _ -> i mod 4 = 0) serve_pool

(* Open-loop arrivals: [rate * seconds] send times, a Poisson process
   conditioned on its count (sorted uniform offsets), each naming a pool
   job.  Jobs cycle through a seeded permutation of the pool, so every
   window carries the same mix. *)
let schedule seed ~rate ~seconds =
  let rng = rng ~seed "serve-schedule" in
  let n = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let offsets = Array.init n (fun _ -> seconds *. (float_of_int (Rng.int rng 1_000_000) /. 1e6)) in
  Array.sort Float.compare offsets;
  let size = List.length serve_pool in
  let order = Array.init size Fun.id in
  shuffle rng order;
  List.init n (fun i -> (offsets.(i), order.(i mod size)))
