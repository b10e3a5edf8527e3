(* Verdict goldens: for one seed, the expected outcome of every input each
   workload draws, keyed by input pool (the two serve workloads share
   one).  Entries are plain JSON objects that carry the input's label, so
   a golden written for another draw is rejected rather than misapplied. *)

module Json = Xfd_util.Json

type t = (string * Json.t list) list

let file ~dir ~seed = Filename.concat dir (Printf.sprintf "seed-%d.json" seed)

let to_json ~seed (t : t) =
  Json.Obj
    [
      ("type", Json.Str "xfd_bench.golden");
      ("seed", Json.Int seed);
      ("pools", Json.Obj (List.map (fun (k, es) -> (k, Json.Arr es)) t));
    ]

let of_json j : (t, string) result =
  match Json.member "pools" j with
  | Some (Json.Obj pools) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (k, Json.Arr es) :: rest -> go ((k, es) :: acc) rest
      | (k, _) :: _ -> Error (Printf.sprintf "golden pool %S is not an array" k)
    in
    go [] pools
  | _ -> Error "golden file has no \"pools\" object"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse text = Result.bind (Json.of_string text) of_json

(* The committed golden for [seed], if there is one. *)
let load ~dir ~seed =
  let path = file ~dir ~seed in
  if not (Sys.file_exists path) then Ok None
  else
    match parse (read_file path) with
    | Ok t -> Ok (Some t)
    | Error e -> Error (Printf.sprintf "%s: %s" path e)

let write oc ~seed t =
  output_string oc (Json.to_string_pretty (to_json ~seed t));
  output_char oc '\n'

let save ~dir ~seed t =
  let oc = open_out_bin (file ~dir ~seed) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc ~seed t)

let label entry =
  match Json.member "label" entry with Some (Json.Str s) -> s | _ -> "?"
