package repro.bench

/** Pure, deterministic text generators for the paper's workloads.
  *
  * Everything is a function of (seed, line index) so the reference
  * interpreter, the Spark driver, and Spark executors materialize
  * identical "files" without shipping data (see exec.Store). These stand
  * in for the paper's corpora: Project-Gutenberg-style text for the
  * one-liners/Unix50, NOAA fixed-width station records, Wikipedia HTML,
  * and FASTQ reads (DESIGN.md § substitutions).
  */
object SynthText {

  /** splitmix64 — stateless PRNG indexed by (seed, i). */
  def mix(seed: Long, i: Long): Long = {
    var z = seed + i * 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  private def u01(seed: Long, i: Long): Double =
    (mix(seed, i) >>> 11) * (1.0 / (1L << 53))

  private val common = Vector(
    "the", "of", "and", "a", "to", "in", "is", "you", "that", "it",
    "he", "was", "for", "on", "are", "as", "with", "his", "they", "I",
    "at", "be", "this", "have", "from", "or", "one", "had", "by", "word",
    "but", "not", "what", "all", "were", "we", "when", "your", "can", "said",
    "there", "use", "an", "each", "which", "she", "do", "how", "their", "if")

  /** The word of Zipf rank `rank`: a common word, else `w<rank>x`. */
  private def spelled(rank: Int): String =
    if (rank < common.size) common(rank) else s"w${rank}x"

  private val Vocab = 5000

  /** Every word of the default vocabulary, by rank, and its capitalized
    * form, built once: a prose line is then only draws and appends. */
  private val words: Array[String] = Array.tabulate(Vocab)(spelled)
  private val capitals: Array[String] = words.map(_.capitalize)

  /** Zipf-ish rank draw over a vocabulary of `vocab` tokens. The
    * expression is kept as written: reassociating it can change a rank. */
  private def rank(seed: Long, i: Long, vocab: Int): Int = {
    val u = u01(seed, i)
    math.min(vocab - 1, (vocab * u * u * u).toInt)
  }

  /** Zipf-ish word draw over a vocabulary of `vocab` tokens. */
  def word(seed: Long, i: Long, vocab: Int = Vocab): String = {
    val r = rank(seed, i, vocab)
    if (r < Vocab) words(r) else spelled(r)
  }

  /** One prose line: 5–12 words, occasional capitals and digits. */
  def textLine(seed: Long)(i: Long): String = {
    val h     = mix(seed, i)
    val n     = 5 + (h & 7).toInt
    val wseed = seed ^ 0x5ca1ab1eL
    val sb    = new java.lang.StringBuilder(8 * n)
    var k     = 0
    while (k < n) {
      if (k > 0) sb.append(' ')
      val r = rank(wseed, i * 16 + k, Vocab)
      sb.append(if (mix(seed, i * 31 + k) % 11 == 0) capitals(r) else words(r))
      k += 1
    }
    if (mix(seed, i * 7) % 13 == 0) sb.append(' ').append((h >>> 5) % 1000)
    sb.toString
  }

  /** Sorted dictionary of the vocabulary's most frequent words. */
  def dictionary(vocab: Int = 2000): Vector[String] =
    (common ++ (common.size until vocab).map(spelled)).sorted

  // ------------------------------------------------------------- NOAA

  /** FTP listing line; field 9 (space-separated) is the file name. */
  def noaaIndexLine(year: Int)(i: Long): String = {
    val name = f"station-${mix(year.toLong, i) & 0xffff}%05d-$year.gz"
    val size = 40000 + (mix(year.toLong, i * 3) & 0xffff)
    s"-rw-r--r--  1 ftp  ftp  $size Jan  1  $year $name"
  }

  /** Fixed-width ISD-lite-style record: columns 89–92 hold the air
    * temperature; ~3% are the 999 sentinel the script filters out. */
  def noaaRecord(year: Int, station: Long)(i: Long): String = {
    val h    = mix(year * 1000L + station, i)
    val temp = if ((h & 31) == 0) "999 " else f"${(h >>> 8) % 500}%4d"
    val pad  = f"$year%04d${station % 100000}%06d" + "x" * 78
    // pad is 88 chars: 4 (year) + 6 (station) + 78 filler
    pad.take(88) + temp + "trail"
  }

  /** Synthetic gzip member: the store serves compressed bytes; `gunzip`
    * strips the marker (substitute codec, DESIGN.md). */
  def noaaGzRecord(year: Int, station: Long)(i: Long): String =
    "GZ:" + noaaRecord(year, station)(i)

  // -------------------------------------------------------- Wikipedia

  /** One line of synthetic HTML with text, tags, links and entities. */
  def htmlLine(pageSeed: Long)(i: Long): String = {
    val h = mix(pageSeed, i)
    (h % 5) match {
      case 0 => s"<div class=c${h % 7}><p>${textLine(pageSeed)(i)}</p></div>"
      case 1 => s"""<a href="https://en.wikipedia.org/wiki/T${h % 997}">${word(pageSeed, i)}</a>"""
      case 2 => s"<script>var x=${h % 100};</script>"
      case 3 => s"<span>${textLine(pageSeed)(i)} &amp; ${word(pageSeed, i + 1)}</span>"
      case _ => textLine(pageSeed)(i)
    }
  }

  // ------------------------------------------------------------ FASTQ

  private val bases = "ACGT"

  /** Sequence line; ~30% contain the adapter motif, ~5% are low quality. */
  def fastqLine(seed: Long)(i: Long): String = {
    val h   = mix(seed, i)
    val len = 60 + (h & 63).toInt
    val sb  = new StringBuilder
    (0 until len).foreach { k =>
      val b = mix(seed ^ 0xfa57L, i * 256 + k)
      sb += (if ((b & 127) == 0) 'N' else bases(((b >>> 2) & 3).toInt))
    }
    if (h % 10 < 3) {
      val pos = (len / 2) + (h % (len / 4)).toInt
      sb.insert(pos, "AGATCGGAAGAGC")
    }
    sb.toString
  }

  /** Shell-script "file" for shortest-scripts: `k` decides length. */
  def scriptFile(k: Int): Vector[String] =
    Vector("#!/bin/sh") ++ (0 until (3 + (mix(7, k) & 63)).toInt)
      .map(j => s"echo step$j-$k")
}
