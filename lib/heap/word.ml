(* Heap words as the simulator stores them: a tag byte plus one slot.

   The slot of an [Int] or [Ptr] word is the payload itself, an
   immediate; the slot of a [Float] word is the float's own box, which a
   load hands back as it is.  Floats keep their box because a flat float
   payload would be reboxed by every [load_float] that is not inlined
   (every one under the dev profile's [-opaque]), while returning the
   stored box allocates nothing in any profile.

   The slots live in an [Obj.t array] made from an immediate, so it is
   never a flat float array and a float box is stored as a pointer.  The
   tag is tested before a slot is read as anything, and all of [Obj] in
   the simulator stays in this module. *)

type _ kind =
  | Int : int kind
  | Float : float kind
  | Ptr : Gptr.t kind
  | Value : Value.t kind

type block = { tags : Bytes.t; slots : Obj.t array }

let t_nil = '\000'
let t_int = '\001'
let t_float = '\002'
let t_ptr = '\003'
let empty = Obj.repr 0

let block n = { tags = Bytes.make n t_nil; slots = Array.make n empty }
let length b = Bytes.length b.tags

(* The edge form of a word; allocates for every tag but [Nil]. *)
let to_edge tag slot : Value.t =
  if tag = t_int then Value.Int (Obj.obj slot)
  else if tag = t_float then Value.Float (Obj.obj slot)
  else if tag = t_ptr then Value.Ptr (Obj.obj slot)
  else Value.Nil

(* Each typed read takes its own tag straight from the slot; every
   other tag goes through [Value]'s accessor, which promotes or raises
   exactly as a load through the edge type would. *)
let get : type a. a kind -> block -> int -> a =
 fun kind b i ->
  let tag = Bytes.unsafe_get b.tags i and slot = Array.unsafe_get b.slots i in
  match kind with
  | Int -> if tag = t_int then Obj.obj slot else Value.to_int (to_edge tag slot)
  | Float ->
      if tag = t_float then Obj.obj slot
      else if tag = t_int then float_of_int (Obj.obj slot)
      else Value.to_float (to_edge tag slot)
  | Ptr ->
      if tag = t_ptr then Obj.obj slot
      else if tag = t_nil then Gptr.null
      else Value.to_ptr (to_edge tag slot)
  | Value -> to_edge tag slot

let put b i tag slot =
  Bytes.unsafe_set b.tags i tag;
  Array.unsafe_set b.slots i slot

let set : type a. a kind -> block -> int -> a -> unit =
 fun kind b i v ->
  match kind with
  | Int -> put b i t_int (Obj.repr v)
  | Float -> put b i t_float (Obj.repr v)
  | Ptr -> put b i t_ptr (Obj.repr v)
  | Value -> (
      match v with
      | Value.Nil -> put b i t_nil empty
      | Value.Int n -> put b i t_int (Obj.repr n)
      | Value.Float f -> put b i t_float (Obj.repr f)
      | Value.Ptr p -> put b i t_ptr (Obj.repr p))

let blit src src_pos dst dst_pos n =
  Bytes.blit src.tags src_pos dst.tags dst_pos n;
  Array.blit src.slots src_pos dst.slots dst_pos n

let clear b pos n =
  Bytes.fill b.tags pos n t_nil;
  Array.fill b.slots pos n empty

let to_value : type a. a kind -> a -> Value.t =
 fun kind v ->
  match kind with
  | Int -> Value.Int v
  | Float -> Value.Float v
  | Ptr -> Value.Ptr v
  | Value -> v
