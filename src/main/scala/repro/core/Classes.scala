package repro.core

/** Parallelizability classes (§3.1, Tab. 1).
  *
  * `all` lists them by ascending difficulty of parallelization;
  * `Stateless ⊂ Pure ⊂ NonParallel` in the sense that any synchronization
  * valid for a superclass is valid (if pessimal) for its subclasses.
  */
sealed abstract class PClass(val symbol: String)

object PClass {
  /** (S): pure per-line map/filter — commutes with concatenation. */
  case object Stateless extends PClass("S")

  /** (P): pure with whole-pass state, parallelizable via map + aggregate. */
  case object Pure extends PClass("P")

  /** (N): pure but sequential state (e.g. sha1sum) — not parallelizable. */
  case object NonParallel extends PClass("N")

  /** (E): side-effectful across the system — never parallelized. */
  case object SideEffectful extends PClass("E")

  val all: List[PClass] = List(Stateless, Pure, NonParallel, SideEffectful)
}
