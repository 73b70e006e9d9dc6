(** Basic statistics over float lists. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val median : float list -> float
(** Median (average of central pair for even lengths); 0 on empty. *)

val stddev : float list -> float
(** Population standard deviation. *)

val rel_stddev : float list -> float
(** Standard deviation / |mean| — the paper's "relative standard
    deviation" used to choose Eq. 1's [n] (Sec. IV-A). 0 when the mean
    is 0. *)

val minimum : float list -> float
val maximum : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [0,100], linear interpolation. *)
