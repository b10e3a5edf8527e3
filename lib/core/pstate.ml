type t = Unmodified | Modified | Writeback_pending | Persisted

type flush_waste = Double_flush | Unnecessary_flush

(* Domain-parametric transfers (DESIGN.md decision 18): ADR is the paper's
   Figure 9; the other models move the persistence boundary. *)

module D = Xfd_trace.Domain_model

(* Outstanding bytes made durable at once: a CXL flush or GPF barrier. *)
let drain = function
  | Modified | Writeback_pending -> Persisted
  | (Unmodified | Persisted) as s -> s

let on_write_in = function
  | D.Adr | D.Cxl_gpf -> fun _ -> Modified
  | D.Eadr -> fun _ -> Persisted

let on_nt_write_in = function
  | D.Adr -> fun _ -> Writeback_pending
  | D.Eadr | D.Cxl_gpf -> fun _ -> Persisted

let on_flush_in = function
  | D.Adr -> (
    function Modified -> Writeback_pending | (Unmodified | Writeback_pending | Persisted) as s -> s)
  | D.Eadr -> fun s -> s
  | D.Cxl_gpf -> drain

let on_fence_in = function
  | D.Adr -> (
    function Writeback_pending -> Persisted | (Unmodified | Modified | Persisted) as s -> s)
  | D.Eadr | D.Cxl_gpf -> fun s -> s

let on_gpf_in = function
  | D.Cxl_gpf -> drain
  | D.Adr | D.Eadr -> fun s -> s

let persists_at_fence m = on_fence_in m Writeback_pending = Persisted
let persists_at_gpf m = on_gpf_in m Modified = Persisted

let code = function Unmodified -> 0 | Modified -> 1 | Writeback_pending -> 2 | Persisted -> 3

let of_code = function
  | 1 -> Modified
  | 2 -> Writeback_pending
  | 3 -> Persisted
  | _ -> Unmodified

let is_persisted = function Persisted -> true | Unmodified | Modified | Writeback_pending -> false
let equal (a : t) b = a = b

let to_string = function
  | Unmodified -> "U"
  | Modified -> "M"
  | Writeback_pending -> "W"
  | Persisted -> "P"
