(* The operations available to an Olden program.  These are what the Olden
   compiler emits calls to; benchmark kernels are written directly against
   this interface. *)

(* Every operation tries the engine's fast path first: operations that
   cannot suspend the fiber run as plain function calls, and only those
   that must capture it (migrations, parks) — or calls outside any engine
   — pay for performing an effect.  [Engine.Must_perform] is raised before
   any state is mutated, so the two paths compose without double
   charging. *)

let work n =
  try Engine.fast_work n
  with Engine.Must_perform -> Effect.perform (Effects.Work n)

let self () =
  try Engine.fast_self ()
  with Engine.Must_perform -> Effect.perform Effects.Self

let nprocs () =
  try Engine.fast_nprocs ()
  with Engine.Must_perform -> Effect.perform Effects.Nprocs

(* ALLOC: allocate [words] words on processor [proc] (Section 2). *)
let alloc ~proc words =
  try Engine.fast_alloc ~proc words
  with Engine.Must_perform -> Effect.perform (Effects.Alloc (proc, words))

let alloc_local words = alloc ~proc:(self ()) words

(* A heap read/write of a [kind] word through dereference site [site].
   The fast path carries the kind down to the word.  A load that must
   migrate performs its kind's effect, whose arm reads the word as that
   kind at the home; a store that must migrate boxes its word in the
   [Value.t] payload of [Store]. *)
let perform_load : type a. a Word.kind -> Site.t -> Gptr.t -> int -> a =
 fun kind site g field ->
  match kind with
  | Word.Int -> Effect.perform (Effects.Load_int (site, g, field))
  | Word.Float -> Effect.perform (Effects.Load_float (site, g, field))
  | Word.Ptr -> Effect.perform (Effects.Load_ptr (site, g, field))
  | Word.Value -> Effect.perform (Effects.Load (site, g, field))

let load_as kind site g field =
  try Engine.fast_load kind site g field
  with Engine.Must_perform -> perform_load kind site g field

let store_as kind site g field v =
  try Engine.fast_store kind site g field v
  with Engine.Must_perform ->
    Effect.perform (Effects.Store (site, g, field, Word.to_value kind v))

let load site g field = load_as Word.Value site g field
let load_ptr site g field = load_as Word.Ptr site g field
let load_int site g field = load_as Word.Int site g field
let load_float site g field = load_as Word.Float site g field

let store site g field v = store_as Word.Value site g field v
let store_ptr site g field p = store_as Word.Ptr site g field p
let store_int site g field i = store_as Word.Int site g field i
let store_float site g field f = store_as Word.Float site g field f

(* futurecall / touch (Section 2).  A futurecall always saves its return
   continuation on the work list, so it always performs; a touch of an
   already-resolved future completes immediately on the fast path. *)
let future body = Effect.perform (Effects.Future body)

let touch ?site fut =
  try Engine.fast_touch fut
  with Engine.Must_perform -> Effect.perform (Effects.Touch (site, fut))

(* A procedure-call boundary: Olden's return stub.  If the callee migrated,
   the thread returns to the caller's processor when the call completes;
   if it never migrated, the stub costs nothing. *)
let call f =
  let origin = self () in
  let result = f () in
  if self () <> origin then Effect.perform (Effects.Return_to origin);
  result

(* Measurement boundary: synchronize all processors and mark the time;
   used to separate structure building from the measured kernel. *)
let phase name = Effect.perform (Effects.Phase name)
