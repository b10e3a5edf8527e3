(* Shared helpers for the test suites. *)

module Ctx = Xfd_sim.Ctx
module Device = Xfd_mem.Pm_device
module Trace = Xfd_trace.Trace
module Addr = Xfd_mem.Addr

let loc = Xfd_util.Loc.of_pos

(* A fresh device + trace + context. *)
let make_ctx ?faults ?strategy ?trust_library ?on_failure_point ?(stage = Ctx.Pre_failure)
    () =
  let dev = Device.create () in
  let trace = Trace.create () in
  let ctx = Ctx.create ?faults ?strategy ?trust_library ?on_failure_point ~stage ~dev ~trace () in
  (dev, trace, ctx)

let i64 = Alcotest.testable (fun ppf v -> Format.fprintf ppf "%Ld" v) Int64.equal

let json_t =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Xfd_util.Json.to_string j))
    ( = )

let detect ?config program = Xfd.Engine.detect ?config program

let tally_of ?config program =
  let o = detect ?config program in
  Xfd.Engine.tally o

let check_clean name outcome =
  let races, semantics, perfs, errors = Xfd.Engine.tally outcome in
  Alcotest.(check int) (name ^ ": races") 0 races;
  Alcotest.(check int) (name ^ ": semantic") 0 semantics;
  Alcotest.(check int) (name ^ ": perf") 0 perfs;
  Alcotest.(check int) (name ^ ": post errors") 0 errors

let case name f = Alcotest.test_case name `Quick f

(* Run [pre] on a fresh device, crash with the given mode, run [post] on the
   booted image; returns what post returns. *)
let crash_boot ~pre ~mode ~post =
  let dev, _, ctx = make_ctx () in
  pre ctx;
  let img = Device.crash dev mode in
  let dev' = Device.boot img in
  let trace' = Trace.create () in
  let ctx' = Ctx.create ~stage:Ctx.Post_failure ~dev:dev' ~trace:trace' () in
  post ctx'

(* Run [setup] and [pre] with failure injection and take, at every failure
   point plus the final state, one crash image per mode that [modes ()]
   returns.  [modes] is called afresh at each point, so a [Randomized]
   generator made there starts from its seed every time. *)
let crash_images ~modes ~setup ~pre =
  let dev = Device.create () in
  let trace = Trace.create () in
  let images = ref [] in
  let take () = images := List.map (Device.crash dev) (modes ()) :: !images in
  let ctx = Ctx.create ~on_failure_point:(fun _ -> take ()) ~stage:Ctx.Pre_failure ~dev ~trace () in
  setup ctx;
  (match pre ctx with () -> () | exception Ctx.Detection_complete -> ());
  take ();
  List.rev !images

(* A *strict* crash image (only guaranteed-durable bytes) at every failure
   point plus the final state.  Used by the workload suites to assert
   transactional atomicity: recovery from any of these images must yield a
   consistent structure. *)
let strict_crash_points ~setup ~pre =
  List.map List.hd (crash_images ~modes:(fun () -> [ Device.Strict ]) ~setup ~pre)

(* One [Randomized] crash image per seed at every failure point plus the
   final state, each drawn from a generator fresh from its seed. *)
let randomized_crashes ~seeds ~setup ~pre =
  crash_images
    ~modes:(fun () ->
      List.map (fun s -> Device.Randomized (Xfd_util.Rng.create (Int64.of_int s))) seeds)
    ~setup ~pre

(* Boot an image and run [f] on a post-failure context. *)
let on_image img f =
  let dev = Device.boot img in
  let trace = Trace.create () in
  let ctx = Ctx.create ~stage:Ctx.Post_failure ~dev ~trace () in
  f ctx

(* Is [xs] a set-prefix of [ys]?  (All elements of xs appear in ys's prefix
   order-insensitively: xs = first (length xs) elements of ys as sets.) *)
let is_prefix_set xs ys =
  let n = List.length xs in
  if n > List.length ys then false
  else begin
    let prefix = List.filteri (fun i _ -> i < n) ys in
    List.sort compare xs = List.sort compare prefix
  end

