(** MiniC types. The representation deliberately mirrors how DWARF / LLVM
    debug info layers types (a [Const] wrapper mirrors
    [DW_TAG_const_type], [Ptr] mirrors [DW_TAG_pointer_type]), because the
    STI analysis consumes exactly those layers to recover the
    programmer's intent (paper section 4.4).

    Data model: ILP64 — [char] is 1 byte, every other scalar and every
    pointer is 8 bytes. This keeps the simulated memory simple without
    affecting any result the paper measures. *)

type t =
  | Void
  | Char
  | Int
  | Long
  | Double
  | Const of t              (** const-qualified type — the permission bit *)
  | Ptr of t                 (** pointer to [t] *)
  | Struct of string         (** reference to a named struct *)
  | Func of signature        (** function type, used through [Ptr] *)
  | Array of t * int         (** fixed-size array *)

and signature = { ret : t; params : t list; variadic : bool }

val equal : t -> t -> bool
(** Structural equality, [Const] included. *)

val strip_const : t -> t
(** Remove top-level [Const] wrappers only. *)

val strip_all_quals : t -> t
(** Remove [Const] wrappers at every level (for compatibility checks). *)

val is_const : t -> bool
(** Whether the top level is const-qualified. *)

val declared_read_only : t -> bool
(** The paper's "permission" bit: the declaration mentions [const] at the
    top level or on a pointer's immediate pointee — [const void* cp] is
    permission R in the paper's Figure 4 example. *)

val is_pointer : t -> bool
(** True for [Ptr _] (under any const qualification). *)

val is_code_pointer : t -> bool
(** True for pointers to function types; these get the IA key, data
    pointers the DA key. *)

val is_pointer_to_pointer : t -> bool
(** True for [Ptr (Ptr _)]-shaped types (any const layering) — the types
    subject to the pointer-to-pointer CE/FE mechanism. *)

val pointee : t -> t
(** The pointed-to type. Raises [Invalid_argument] on non-pointers. *)

val is_integer : t -> bool
(** [Char], [Int] or [Long] under any qualification. *)

val is_scalar : t -> bool
(** Integer, double, or pointer. *)

val sizeof : lookup:(string -> (string * t) list) -> t -> int
(** Byte size under the ILP64 model. [lookup] resolves struct names to
    field lists. Function types have no size (raises). A struct that
    reaches itself by value through [lookup] (directly, through another
    struct or through an array) has no finite size: raises
    [Invalid_argument "Ctype.sizeof: struct 'S' contains itself by value"]
    instead of recursing forever. *)

val field_offset : lookup:(string -> (string * t) list) -> string -> string -> int * t
(** [field_offset ~lookup sname fname] is the byte offset and type of a
    struct field. Fields are laid out in declaration order, each aligned
    to 8 bytes except consecutive [char]s/char arrays which pack. Raises
    [Not_found] if the field does not exist, and [Invalid_argument] as
    {!sizeof} does when the layout contains itself by value. *)

val to_string : t -> string
(** C-style rendering, e.g. ["const void*"], ["struct node*"],
    ["int (*)(int)"]. This string is also the canonical name STI hashes
    into modifiers, so it must be injective on distinct types. *)

val pp : Format.formatter -> t -> unit

val params_string : signature -> string
(** Comma-separated parameter type list, ["void"] when empty — the piece
    inside the parentheses of a function type rendering. *)

val compatible : t -> t -> bool
(** The C notion of assignment compatibility MiniC enforces: equal after
    qualifier stripping, or one side is [void*], or null-pointer-constant
    contexts (handled by the checker). *)
