(* Heap cell contents in their boxed edge form.  The heap itself stores a
   tag byte plus one slot per word (Word); these accessors define what
   every typed read of a word returns or raises. *)

type t =
  | Nil (* uninitialized word / null pointer *)
  | Int of int
  | Float of float
  | Ptr of Gptr.t

let equal a b =
  match (a, b) with
  | Nil, Nil -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Ptr x, Ptr y -> Gptr.equal x y
  | (Nil | Int _ | Float _ | Ptr _), _ -> false

let to_string = function
  | Nil -> "nil"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Ptr p -> Gptr.to_string p

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* Accessors with informative failures: a benchmark reading the wrong field
   type is a bug we want to see immediately. *)

let to_int = function
  | Int i -> i
  | v -> invalid_arg ("Value.to_int: " ^ to_string v)

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> invalid_arg ("Value.to_float: " ^ to_string v)

let to_ptr = function
  | Ptr p -> p
  | Nil -> Gptr.null
  | v -> invalid_arg ("Value.to_ptr: " ^ to_string v)

let of_bool b = Int (if b then 1 else 0)

let to_bool = function
  | Int 0 | Nil -> false
  | Int _ -> true
  | v -> invalid_arg ("Value.to_bool: " ^ to_string v)
