(** Bit counting shared by the hash entry points of this library. *)

val trailing_zeros_int : int -> int
(** [trailing_zeros_int w] is the number of trailing zero bits of the
    native 63-bit word [w]; [trailing_zeros_int 0 = 63]. *)
