package repro.cmds

import java.util.regex.Pattern
import repro.core.AnnotationLib
import repro.core.Annotations.Resolved
import repro.core.PClass

/** Pure UNIX command semantics over line streams.
  *
  * One implementation shared by the reference interpreter (`exec.RefExec`)
  * and the Spark executor (`exec.SparkExec` wraps these in `mapPartitions`)
  * — so sequential/parallel equivalence tests compare the *transformation*,
  * not two divergent re-implementations of `sort`.
  *
  * All functions are pure and serializable; nothing here touches Spark.
  * Deliberate, documented simplifications vs GNU byte-for-byte behaviour
  * (e.g. `tr -s` squeezing within a line rather than across the byte
  * stream) apply identically on both executors and to the workloads we
  * generate.
  */
object Kernels extends Serializable {

  /** Execution context: static (configuration) inputs in annotation order,
    * plus the synthetic file/URL store for `xargs`-style inner fetches. */
  final case class Ctx(statics: List[Vector[String]],
                       fetch: String => Vector[String]) extends Serializable

  // ======================================================== tr machinery

  private[cmds] def expandSet(spec: String): String = {
    val out = new StringBuilder
    var i = 0
    val s = spec.replace("\\n", "\n").replace("\\t", "\t").replace("\\\\", "\\")
    while (i < s.length) {
      if (i + 2 < s.length && s.charAt(i + 1) == '-' && s.charAt(i + 2) >= s.charAt(i)) {
        (s.charAt(i) to s.charAt(i + 2)).foreach(out += _)
        i += 3
      } else { out += s.charAt(i); i += 1 }
    }
    out.toString
  }

  /** `tr` as two 64K-entry tables over `char`: SET1 membership (after `-c`)
    * and what each char becomes (a member its SET2 char, any other itself).
    * A mapped or kept `\n` ends an output line; empty lines are dropped
    * once a line was split. Without `-s` and `-d`, when no member maps to
    * `\n`, a line without `\n` is one table lookup per char, and is
    * returned as is when no char changes. */
  private def trLine(r: Resolved): String => Seq[String] = {
    val comp    = r.flags.contains("-c")
    val squeeze = r.flags.contains("-s")
    val delete  = r.flags.contains("-d")
    val set1    = expandSet(r.operands.headOption.getOrElse(""))
    val set2    = r.operands.lift(1).map(expandSet).getOrElse("")
    val mapping = set2.nonEmpty
    val member  = new Array[Boolean](65536)
    set1.foreach(c => member(c) = true)
    if (comp) (0 until 65536).foreach(c => member(c) = !member(c))
    val table = new Array[Char](65536)
    (0 until 65536).foreach(c => table(c) = c.toChar)
    if (mapping) {
      if (comp) (0 until 65536).foreach(c => if (member(c)) table(c) = set2.last)
      else set1.indices.reverse.foreach { i => // first occurrence wins
        table(set1.charAt(i)) = set2.charAt(math.min(i, set2.length - 1))
      }
    }
    val plain = !squeeze && !delete && set2.indexOf('\n') < 0 // so no member maps to `\n`

    def general(line: String): List[String] = {
      val buf     = new Array[Char](line.length)
      var len     = 0
      var split   = false
      var changed = false
      var last    = -1
      var i       = 0
      while (i < line.length) {
        val ch  = line.charAt(i)
        var out = -1 // the char this one becomes, if any
        if (delete) {
          if (!member(ch)) out = ch
        } else if (mapping && member(ch)) {
          val mapped = table(ch).toInt
          if (!(squeeze && last == mapped)) out = mapped
          last = mapped
        } else if (squeeze && !mapping && member(ch)) {
          // `tr -s SET`: squeeze repeats of SET members
          if (last != ch.toInt) out = ch
          last = ch.toInt
        } else { out = ch; last = -1 }
        if (out != ch) changed = true
        if (out >= 0) { buf(len) = out.toChar; len += 1; if (out == '\n') split = true }
        i += 1
      }
      if (!split) (if (changed) new String(buf, 0, len) else line) :: Nil
      else { // the non-empty lines between the `\n`s, built back to front
        var lines: List[String] = Nil
        var end = len
        var j   = len - 1
        while (j >= 0) {
          if (buf(j) == '\n') {
            if (end > j + 1) lines = new String(buf, j + 1, end - j - 1) :: lines
            end = j
          }
          j -= 1
        }
        if (end > 0) new String(buf, 0, end) :: lines else lines
      }
    }

    line =>
      if (plain && line.indexOf('\n') < 0) {
        var i = 0
        while (i < line.length && table(line.charAt(i)) == line.charAt(i)) i += 1
        if (i == line.length) line :: Nil
        else {
          val buf = line.toCharArray
          while (i < buf.length) { buf(i) = table(buf(i)); i += 1 }
          new String(buf) :: Nil
        }
      } else general(line)
  }

  // ======================================================= cut machinery

  private[cmds] def parseRanges(spec: String): List[(Int, Int)] =
    spec.split(',').toList.map { part =>
      part.split("-", -1) match {
        case Array(a)     => (a.toInt, a.toInt)
        case Array("", b) => (1, b.toInt)
        case Array(a, "") => (a.toInt, Int.MaxValue)
        case Array(a, b)  => (a.toInt, b.toInt)
        case _            => throw new IllegalArgumentException(s"bad range: $spec")
      }
    }

  /** `cut -c` keeps ranges in list order; `cut -f` scans the fields with
    * `indexOf` and keeps those in any range, in field order. */
  private def cutLine(r: Resolved): String => Seq[String] = {
    if (r.flagVals.contains("-c")) {
      val ranges = parseRanges(r.flagVals("-c")).toArray
      line => {
        val sb = new java.lang.StringBuilder
        ranges.foreach { case (a, b) =>
          val from = math.min(a - 1, line.length)
          val to   = math.min(b, line.length)
          if (from < to) sb.append(line, from, to)
        }
        sb.toString :: Nil
      }
    } else {
      val delim  = r.flagVals.getOrElse("-d", "\t").headOption.getOrElse('\t')
      val ranges = parseRanges(r.flagVals.getOrElse("-f", "1"))
      // field i (1-based) is kept iff table(i), or for i past the table iff i >= openFrom
      val finite = ranges.flatMap { case (a, b) => List(a, b) }.filter(_ != Int.MaxValue)
      val table  = new Array[Boolean](finite.maxOption.getOrElse(0) + 1)
      ranges.foreach { case (a, b) =>
        (math.max(a, 1) to math.min(b, table.length - 1)).foreach(table(_) = true)
      }
      val openFrom = ranges.collect { case (a, Int.MaxValue) => math.max(a, 1) }
        .minOption.getOrElse(Int.MaxValue)
      val onlyDelimited = r.flags.contains("-s")
      line => {
        var end = line.indexOf(delim)
        if (end < 0) { if (onlyDelimited) Nil else line :: Nil }
        else {
          val sb    = new java.lang.StringBuilder
          var first = true
          var start = 0
          var field = 1
          while (start >= 0) {
            if (if (field < table.length) table(field) else field >= openFrom) {
              if (!first) sb.append(delim)
              sb.append(line, start, if (end < 0) line.length else end)
              first = false
            }
            start = if (end < 0) -1 else end + 1
            if (start >= 0) end = line.indexOf(delim, start)
            field += 1
          }
          sb.toString :: Nil
        }
      }
    }
  }

  // ======================================================= sed machinery

  /** Parse `s<d>regex<d>replacement<d>[g]`; returns per-line transform. */
  private def sedLine(r: Resolved): String => Seq[String] = {
    val script = r.operands.headOption.getOrElse(
      throw new IllegalArgumentException("sed: missing script"))
    require(script.length > 1 && script.charAt(0) == 's', s"sed: unsupported: $script")
    val d      = script.charAt(1)
    val parts  = splitUnescaped(script.drop(2), d)
    require(parts.size >= 2, s"sed: bad substitution: $script")
    val global = parts.lift(2).exists(_.contains('g'))
    val re     = Pattern.compile(parts(0))
    // sed `&` (whole match) → Java `$0`; escape Java-special chars otherwise
    val repl = {
      val raw = parts(1)
      val sb  = new StringBuilder
      var i   = 0
      while (i < raw.length) {
        raw.charAt(i) match {
          case '\\' if i + 1 < raw.length => sb += raw.charAt(i + 1); i += 2
          case '&'  => sb ++= "$0"; i += 1
          case '$'  => sb ++= "\\$"; i += 1
          case c    => sb += c; i += 1
        }
      }
      sb.toString
    }
    line => {
      val m = re.matcher(line)
      (if (global) m.replaceAll(repl) else m.replaceFirst(repl)) :: Nil
    }
  }

  private def splitUnescaped(s: String, d: Char): List[String] = {
    val out = List.newBuilder[String]
    val sb  = new StringBuilder
    var i   = 0
    while (i < s.length) {
      val c = s.charAt(i)
      if (c == '\\' && i + 1 < s.length && s.charAt(i + 1) == d) { sb += d; i += 2 }
      else if (c == d) { out += sb.toString; sb.clear(); i += 1 }
      else { sb += c; i += 1 }
    }
    out += sb.toString
    out.result()
  }

  // ===================================================== field machinery

  /** `line.split(Pattern.quote(c.toString), -1)` without a regex. */
  private[cmds] def splitOn(line: String, c: Char): Array[String] = {
    val out   = Array.newBuilder[String]
    var start = 0
    var end   = line.indexOf(c)
    while (end >= 0) { out += line.substring(start, end); start = end + 1; end = line.indexOf(c, start) }
    out += line.substring(start)
    out.result()
  }

  /** `\s` of `java.util.regex`: the six ASCII blanks. */
  private def isBlank(c: Char): Boolean =
    c == ' ' || c == '\t' || c == '\n' || c == '\u000b' || c == '\f' || c == '\r'

  /** `line.trim.split("\\s+")` without a regex: `trim` drops every char up
    * to U+0020 at both ends, then runs of [[isBlank]] separate the fields. */
  private[cmds] def blankFields(line: String): Array[String] = {
    val out = Array.newBuilder[String]
    var i   = 0
    var hi  = line.length
    while (i < hi && line.charAt(i) <= ' ') i += 1
    while (hi > i && line.charAt(hi - 1) <= ' ') hi -= 1
    if (i == hi) out += ""
    while (i < hi) {
      val start = i
      while (i < hi && !isBlank(line.charAt(i))) i += 1
      out += line.substring(start, i)
      while (i < hi && isBlank(line.charAt(i))) i += 1
    }
    out.result()
  }

  /** Number of fields [[blankFields]] would return, not counting an empty
    * one: `wc -w`'s word count. */
  private def wordCount(line: String): Long = {
    var i  = 0
    var hi = line.length
    while (i < hi && line.charAt(i) <= ' ') i += 1
    while (hi > i && line.charAt(hi - 1) <= ' ') hi -= 1
    var n = 0L
    var inWord = false
    while (i < hi) {
      val blank = isBlank(line.charAt(i))
      if (!blank && !inWord) n += 1
      inWord = !blank
      i += 1
    }
    n
  }

  /** Numeric value of a string's leading number (GNU sort -n semantics):
    * optional [[isBlank]]s, optional `-`, ASCII digits, optional `.` and
    * fraction digits; else 0. Up to 15 digits without a fraction are exact
    * as a `Long`; anything longer goes through `toDouble`. */
  private[cmds] def numPrefix(s: String): Double = {
    var i = 0
    while (i < s.length && isBlank(s.charAt(i))) i += 1
    val start = i
    val neg   = i < s.length && s.charAt(i) == '-'
    if (neg) i += 1
    val digits = i
    var v = 0L
    while (i < s.length && s.charAt(i) >= '0' && s.charAt(i) <= '9') {
      v = v * 10 + (s.charAt(i) - '0'); i += 1
    }
    if (i == digits) 0.0
    else if (i < s.length && s.charAt(i) == '.') {
      i += 1
      while (i < s.length && s.charAt(i) >= '0' && s.charAt(i) <= '9') i += 1
      s.substring(start, i).toDouble
    } else if (i - digits > 15) s.substring(start, i).toDouble
    else if (neg) -v.toDouble
    else v.toDouble
  }

  // ====================================================== sort machinery

  /** A line decorated once with its sort key: the `-k`/`-t` key string
    * (the line itself without `-k`) and, under `-n`, its number. */
  private final class Keyed(val key: String, val num: Double, val line: String)

  /** GNU-sort-style order from flags: -n, -r, -u, -k F[,M], -t SEP; ties
    * fall back to full-line comparison (last resort, like GNU without -s),
    * except under `-u` with `-n` or `-k`, where GNU compares keys only.
    * Under `-n`, `-0` equals `0`. Each line's key is computed once: without
    * `-n`/`-k` the line is its own key (String natural order), otherwise
    * the line is decorated as a [[Keyed]]. `sort`, `sort -u` and the
    * `sort-m` aggregator all sort through [[sorted]]. */
  private final class SortKey(r: Resolved) extends Serializable {
    private val numeric = r.flags.contains("-n")
    private val reverse = r.flags.contains("-r")
    private val unique  = r.flags.contains("-u")
    private val sep     = r.flagVals.get("-t").flatMap(_.headOption)
    private val keySpec = r.flagVals.get("-k").map { spec =>
      spec.split(',') match {
        case Array(a)    => (a.takeWhile(_.isDigit).toInt, Int.MaxValue)
        case Array(a, b) => (a.takeWhile(_.isDigit).toInt, b.takeWhile(_.isDigit).toInt)
        case _           => (1, Int.MaxValue)
      }
    }

    private def decorate(line: String): Keyed = {
      val key = keySpec match {
        case None => line
        case Some((a, b)) =>
          val fs = sep match {
            case Some(c) => splitOn(line, c)
            case None    => blankFields(line)
          }
          fs.slice(a - 1, if (b == Int.MaxValue) fs.length else b).mkString(" ")
      }
      new Keyed(key, if (numeric) numPrefix(key) else 0.0, line)
    }

    @transient private lazy val keyedOrder: java.util.Comparator[Keyed] = {
      val base: java.util.Comparator[Keyed] =
        if (numeric) (x, y) => {
          val c = if (x.num < y.num) -1 else if (x.num > y.num) 1 else 0
          if (c != 0 || unique) c else x.line.compareTo(y.line)
        }
        else (x, y) => {
          val c = x.key.compareTo(y.key)
          if (c != 0 || unique) c else x.line.compareTo(y.line)
        }
      if (reverse) base.reversed else base
    }

    /** The streams' lines in order (Timsort, stable); `-u` keeps the first
      * line of each run that the order calls equal. */
    def sorted(ss: List[Vector[String]]): Vector[String] = {
      val lines = new Array[String](ss.iterator.map(_.size).sum)
      ss.foldLeft(0) { (at, v) => v.copyToArray(lines, at); at + v.size }
      var n = lines.length // lines kept, moved to the front of `lines`
      var i = 0
      if (!numeric && keySpec.isEmpty) {
        java.util.Arrays.sort(lines, if (reverse) java.util.Comparator.reverseOrder[String]()
                                     else java.util.Comparator.naturalOrder[String]())
        if (unique) {
          n = 0
          while (i < lines.length) {
            if (n == 0 || lines(i) != lines(n - 1)) { lines(n) = lines(i); n += 1 }
            i += 1
          }
        }
      } else {
        val keyed = lines.map(decorate)
        java.util.Arrays.sort(keyed, keyedOrder)
        n = 0
        while (i < keyed.length) {
          if (!unique || i == 0 || keyedOrder.compare(keyed(i - 1), keyed(i)) != 0) {
            lines(n) = keyed(i).line; n += 1
          }
          i += 1
        }
      }
      (if (n == lines.length) lines else lines.take(n)).toVector
    }
  }

  // ====================================================== misc machinery

  /** `"%7d %s".format(n, line)`: the count right-aligned in 7 columns. */
  private def uniqCLine(n: Long, line: String): String = {
    val digits = java.lang.Long.toString(n)
    val sb     = new java.lang.StringBuilder(math.max(7, digits.length) + 1 + line.length)
    var pad    = 7 - digits.length
    while (pad > 0) { sb.append(' '); pad -= 1 }
    sb.append(digits).append(' ').append(line).toString
  }

  private def uniqWhole(r: Resolved): Vector[String] => Vector[String] = {
    val emit: (Long, String) => String =
      if (r.flags.contains("-c")) uniqCLine else (_, l) => l
    v => {
      val out = Vector.newBuilder[String]
      val it  = v.iterator
      var cur: String = null
      var n = 0L
      while (it.hasNext) {
        val l = it.next()
        if (l == cur) n += 1
        else {
          if (cur != null) out += emit(n, cur)
          cur = l; n = 1
        }
      }
      if (cur != null) out += emit(n, cur)
      out.result()
    }
  }

  private def wcWhole(r: Resolved): Vector[String] => Vector[String] = {
    val sel0 = List("-l" -> r.flags.contains("-l"), "-w" -> r.flags.contains("-w"),
                    "-c" -> r.flags.contains("-c")).filter(_._2).map(_._1)
    val sel  = if (sel0.isEmpty) List("-l", "-w", "-c") else sel0
    v => {
      val l = v.size.toLong
      lazy val w = v.foldLeft(0L)(_ + wordCount(_))
      lazy val c = v.foldLeft(0L)(_ + _.length + 1) // + newline
      Vector(sel.map { case "-l" => l; case "-w" => w; case "-c" => c }
                .mkString(" "))
    }
  }

  private def headCount(r: Resolved): Int =
    r.flagVals.get("-n").map(_.toInt)
      .orElse(r.flags.collectFirst { case f if f.matches("-[0-9]+") => f.drop(1).toInt })
      .getOrElse(10)

  private def tailSpec(r: Resolved): Either[Int, Int] = {
    // Left(k) = last k lines; Right(k) = from line k (tail -n +k)
    val spec = r.flagVals.get("-n")
      .orElse(r.operands.find(_.matches("\\+[0-9]+")))
      .getOrElse("10")
    if (spec.startsWith("+")) Right(spec.drop(1).toInt) else Left(spec.toInt)
  }

  private def commWhole(r: Resolved): (Vector[String], Vector[String]) => Vector[String] = {
    val show1 = !r.flags.contains("-1")
    val show2 = !r.flags.contains("-2")
    val show3 = !r.flags.contains("-3")
    val ind2  = if (show1) "\t" else ""
    val ind3  = (if (show1) "\t" else "") + (if (show2) "\t" else "")
    (a, b) => {
      val out = Vector.newBuilder[String]
      var (i, j) = (0, 0)
      while (i < a.size || j < b.size) {
        if (j >= b.size || (i < a.size && a(i) < b(j))) {
          if (show1) out += a(i)
          i += 1
        } else if (i >= a.size || b(j) < a(i)) {
          if (show2) out += ind2 + b(j)
          j += 1
        } else {
          if (show3) out += ind3 + a(i)
          i += 1; j += 1
        }
      }
      out.result()
    }
  }

  private def awkWhole(r: Resolved): Vector[String] => Vector[String] = {
    val fs   = r.flagVals.get("-F")
    val prog = r.operands.headOption.getOrElse(
      throw new IllegalArgumentException("awk: missing program")).trim
    def fields(line: String): Array[String] = fs match {
      case Some(s) => line.split(Pattern.quote(s), -1)
      case None    => blankFields(line)
    }
    def field(line: String, n: Int): String =
      if (n == 0) line else fields(line).lift(n - 1).getOrElse("")
    val printRe = Pattern.compile("^\\{\\s*print\\s+(.*?)\\s*\\}$")
    val sumRe   = Pattern.compile(
      "^\\{\\s*(\\w+)\\s*\\+=\\s*\\$(\\d+)\\s*\\}\\s*END\\s*\\{\\s*print\\s+\\1\\s*\\}$")
    val pm = printRe.matcher(prog)
    val sm = sumRe.matcher(prog)
    if (sm.matches()) {
      val n = sm.group(2).toInt
      v => Vector(fmtNum(v.iterator.map(l => numPrefix(field(l, n))).sum))
    } else if (pm.matches()) {
      val items = pm.group(1).split(",").map(_.trim).toList
      require(items.forall(_.matches("\\$[0-9]+")), s"awk: unsupported print: $prog")
      val idxs = items.map(_.drop(1).toInt)
      v => v.map(l => idxs.map(field(l, _)).mkString(" "))
    } else throw new IllegalArgumentException(s"awk: unsupported program: $prog")
  }

  private def fmtNum(d: Double): String =
    if (d == d.floor && math.abs(d) < 1e15) d.toLong.toString else d.toString

  private def sha1Whole(v: Vector[String]): Vector[String] = {
    val md = java.security.MessageDigest.getInstance("SHA-1")
    v.foreach { l => md.update(l.getBytes("UTF-8")); md.update('\n'.toByte) }
    Vector(md.digest().map("%02x".format(_)).mkString + "  -")
  }

  /** Trimmed-prefix/suffix structural diff in GNU's normal format: one hunk
    * spans everything between the common prefix and the common suffix
    * (a simplification of Myers diff, DESIGN.md §2 "Substitutions"). Its
    * change command is `l1[,l2]{a,c,d}r1[,r2]`, as GNU prints it. */
  private def diffWhole(a: Vector[String], b: Vector[String]): Vector[String] = {
    var lo = 0
    while (lo < a.size && lo < b.size && a(lo) == b(lo)) lo += 1
    var hiA = a.size; var hiB = b.size
    while (hiA > lo && hiB > lo && a(hiA - 1) == b(hiB - 1)) { hiA -= 1; hiB -= 1 }
    // 1-based lines lo+1..hi, or the line before an empty range
    def range(hi: Int) = if (hi == lo) s"$lo" else if (hi == lo + 1) s"$hi" else s"${lo + 1},$hi"
    val cmd = if (hiA == lo) "a" else if (hiB == lo) "d" else "c"
    if (hiA == lo && hiB == lo) Vector.empty
    else (range(hiA) + cmd + range(hiB)) +: (a.slice(lo, hiA).map("< " + _) ++
      (if (cmd == "c") Vector("---") else Vector.empty) ++
      b.slice(lo, hiB).map("> " + _))
  }

  private def joinWhole(r: Resolved)(a: Vector[String], b: Vector[String]): Vector[String] = {
    def key(l: String)  = blankFields(l).head
    def rest(l: String) = blankFields(l).drop(1).mkString(" ")
    val out = Vector.newBuilder[String]
    var i = 0
    var j = 0
    while (i < a.size && j < b.size) {
      val c = key(a(i)).compareTo(key(b(j)))
      if (c < 0) i += 1
      else if (c > 0) j += 1
      else {
        // cross product of the equal-key runs
        val ke = key(a(i))
        val endI = { var x = i; while (x < a.size && key(a(x)) == ke) x += 1; x }
        val endJ = { var y = j; while (y < b.size && key(b(y)) == ke) y += 1; y }
        for (x <- i until endI; y <- j until endJ)
          out += (ke + " " + rest(a(x)) + " " + rest(b(y))).trim
        i = endI; j = endJ
      }
    }
    out.result()
  }

  private def pasteWhole(r: Resolved)(streams: List[Vector[String]]): Vector[String] = {
    val d = r.flagVals.getOrElse("-d", "\t")
    val n = streams.map(_.size).maxOption.getOrElse(0)
    Vector.tabulate(n) { i =>
      streams.map(_.lift(i).getOrElse("")).mkString(d)
    }
  }

  // =========================================================== dispatch

  /** Per-line kernel for stateless commands; `None` if the command is not
    * per-line (the caller falls back to [[whole]]). */
  def stateless(r: Resolved): Option[Ctx => String => Seq[String]] = r.name match {
    case "cat" | "curl" | "wget" => Some(_ => l => l :: Nil)
    case "tr"    => Some(_ => trLine(r))
    case "grep" if !r.flags.contains("-c") && !r.flags.contains("-n") =>
      Some { _ =>
        val m = GrepMatch(r)
        l => if (m.matches(l)) l :: Nil else Nil
      }
    case "cut"      => Some(_ => cutLine(r))
    case "sed"      => Some(_ => sedLine(r))
    case "rev"      => Some(_ => l => l.reverse :: Nil)
    case "col"      => Some(_ => l => l.filter(c => c >= ' ' || c == '\t') :: Nil)
    case "iconv"    => Some(_ => l => l :: Nil)
    case "fold"     =>
      val w = r.flagVals.get("-w").map(_.toInt).getOrElse(80)
      Some(_ => l => if (l.isEmpty) "" :: Nil else l.grouped(w).toList)
    case "expand"   => Some(_ => l => expandTabs(l) :: Nil)
    case "unexpand" => Some(_ => l => unexpandSpaces(l) :: Nil)
    case "gunzip" | "zcat" => Some(_ => l => l.stripPrefix("GZ:") :: Nil)
    case "url-extract" =>
      Some { _ =>
        val href = Pattern.compile("href=\"([^\"]+)\"")
        l => { val m = href.matcher(l)
               val out = List.newBuilder[String]
               while (m.find()) out += m.group(1)
               out.result() }
      }
    case "html-to-text" =>
      Some { _ => l =>
        val txt = l.replaceAll("<script[^>]*>.*?</script>", " ")
                   .replaceAll("<[^>]*>", " ")
                   .replaceAll("&[a-z]+;", " ")
                   .replaceAll("\\s+", " ").trim
        if (txt.isEmpty) Nil else txt :: Nil
      }
    case "word-stem" =>
      Some { _ => l =>
        val w = l.toLowerCase
        List("ingly", "edly", "ing", "ied", "ies", "ed", "ly", "es", "s")
          .collectFirst { case suf if w.endsWith(suf) && w.length > suf.length + 2 =>
            w.dropRight(suf.length) }
          .getOrElse(w) :: Nil
      }
    case "trim-adapter" =>
      Some { _ => l =>
        val i = l.indexOf("AGATCGGAAGAGC") // Illumina TruSeq adapter motif
        (if (i >= 0) l.take(i) else l) :: Nil
      }
    case "quality-filter" =>
      Some(_ => l => if (l.count(_ == 'N') * 10 <= l.length.max(1)) l :: Nil else Nil)
    case "comm" if r.flags.contains("-1") && r.flags.contains("-3") =>
      Some { ctx =>
        val dict = ctx.statics.headOption.getOrElse(Vector.empty).toSet
        l => if (dict.contains(l)) Nil else l :: Nil
      }
    case "comm" if r.flags.contains("-2") && r.flags.contains("-3") =>
      Some { ctx =>
        val dict = ctx.statics.headOption.getOrElse(Vector.empty).toSet
        l => if (dict.contains(l)) Nil else l :: Nil
      }
    case "xargs" => Some { ctx => val run = xargsRun(r, ctx); l => run(l :: Nil) }
    case "file"  => Some(ctx => l => fileType(ctx, l) :: Nil)
    case _       => None
  }

  private def expandTabs(l: String): String = {
    val sb = new StringBuilder
    l.foreach {
      case '\t' => do sb += ' ' while (sb.length % 8 != 0)
      case c    => sb += c
    }
    sb.toString
  }

  private def unexpandSpaces(l: String): String = {
    val lead = l.takeWhile(_ == ' ').length
    "\t" * (lead / 8) + " " * (lead % 8) + l.drop(lead)
  }

  private def fileType(ctx: Ctx, name: String): String = {
    val content = ctx.fetch(name)
    val kind =
      if (content.headOption.exists(_.startsWith("#!")))
        "POSIX shell script, ASCII text executable"
      else "ASCII text"
    s"$name: $kind"
  }

  /** `xargs`: the inner command, set up once, run on each batch with the
    * batch as its operands. The inner command is the raw words after
    * xargs's own options, split as `AnnotationLib.resolve` splits them. */
  private def xargsRun(r: Resolved, ctx: Ctx): List[String] => Seq[String] =
    r.args.dropWhile(w => w.startsWith("-") || w.matches("[0-9]+")) match {
      case ("curl" | "wget" | "cat") :: _ =>
        batch => batch.flatMap(ctx.fetch)
      case "wc" :: innerFlags =>
        val countL = innerFlags.contains("-l") || innerFlags.isEmpty
        require(countL, s"xargs wc: unsupported flags $innerFlags")
        batch => {
          val counts = batch.map(f => (ctx.fetch(f).size, f))
          val per    = counts.map { case (n, f) => s"$n $f" }
          if (counts.size > 1) per :+ s"${counts.map(_._1).sum} total" else per
        }
      case "file" :: _ =>
        batch => batch.map(fileType(ctx, _))
      case "grep" :: rest =>
        val g = AnnotationLib.resolve("grep", rest)
        val m = GrepMatch(g, implemented = GrepMatch.Flags - "-c")
        if (g.operands.size > (if (g.flagVals.contains("-e")) 0 else 1))
          throw new IllegalArgumentException(s"xargs grep: unsupported operands in $rest")
        // GNU prefixes each line with its file's name once a batch holds two files
        batch => batch.flatMap { f =>
          val hits = ctx.fetch(f).filter(m.matches)
          if (batch.size > 1) hits.map(l => s"$f:$l") else hits
        }
      case other =>
        throw new IllegalArgumentException(s"xargs: unsupported inner command $other")
    }

  /** Whole-stream kernel over the ordered streaming inputs. Defined for
    * every command our evaluation scripts use (any class). */
  def whole(r: Resolved): Ctx => List[Vector[String]] => Vector[String] = r.name match {
    case "sort"  => _ => new SortKey(r).sorted
    case "uniq"  => _ => ss => uniqWhole(r)(concat(ss))
    case "wc"    => _ => ss => wcWhole(r)(concat(ss))
    case "head"  => _ => ss => concat(ss).take(headCount(r))
    case "tail"  => _ => ss => tailSpec(r) match {
      case Left(k)  => concat(ss).takeRight(k)
      case Right(k) => concat(ss).drop(k - 1)
    }
    case "tac"   => _ => ss => concat(ss).reverse
    case "nl"    => _ => ss => concat(ss).zipWithIndex.map {
      case (l, i) => "%6d\t%s".format(i + 1, l)
    }
    case "cat" if r.flags.contains("-n") => _ => ss => concat(ss).zipWithIndex.map {
      case (l, i) => "%6d\t%s".format(i + 1, l)
    }
    case "grep" if r.flags.contains("-c") =>
      _ => ss => {
        val m = GrepMatch(r)
        Vector(ss.iterator.map(_.count(m.matches)).sum.toString)
      }
    case "comm" if !(r.flags.contains("-1") && r.flags.contains("-3")) &&
                   !(r.flags.contains("-2") && r.flags.contains("-3")) =>
      ctx => ss => {
        val (a, b) = twoStreams(r, ctx, ss)
        commWhole(r)(a, b)
      }
    case "join"  => ctx => ss => { val (a, b) = twoStreams(r, ctx, ss); joinWhole(r)(a, b) }
    case "diff"  => ctx => ss => { val (a, b) = twoStreams(r, ctx, ss); diffWhole(a, b) }
    case "paste" => _ => ss => pasteWhole(r)(ss)
    case "awk"   => _ => ss => awkWhole(r)(concat(ss))
    case "sed" if r.flags.contains("-n") =>
      // address scripts: `sed -n Np` prints only line N
      val prog = r.operands.headOption.getOrElse("")
      val m = Pattern.compile("^([0-9]+)p$").matcher(prog)
      require(m.matches(), s"sed: unsupported -n script: $prog")
      val n = m.group(1).toInt
      _ => ss => concat(ss).slice(n - 1, n)
    case "sha1sum" | "md5sum" | "sha256sum" => _ => ss => sha1Whole(concat(ss))
    case "cksum" => _ => ss => {
      val v = concat(ss)
      Vector(s"${v.hashCode.toLong & 0xffffffffL} ${v.map(_.length + 1).sum}")
    }
    case "xargs" =>
      val n = r.flagVals.get("-n").map(_.toInt)
      ctx => ss => {
        val run     = xargsRun(r, ctx)
        val lines   = concat(ss).toList
        val batches = n match {
          case Some(k) => lines.grouped(k).toList
          case None    => if (lines.isEmpty) Nil else List(lines)
        }
        batches.flatMap(run).toVector
      }
    case "echo" => _ => _ => Vector(r.operands.mkString(" "))
    case "seq"  => _ => _ => {
      val (from, to) = r.operands.map(_.toLong) match {
        case List(t)    => (1L, t)
        case List(f, t) => (f, t)
        case other      => throw new IllegalArgumentException(s"seq: $other")
      }
      (from to to).map(_.toString).toVector
    }
    case _ =>
      stateless(r) match {
        case Some(mk) => ctx => ss => { val f = mk(ctx); concat(ss).flatMap(f(_)).toVector }
        case None =>
          throw new IllegalArgumentException(
            s"no kernel for command '${r.name}' (args=${r.args})")
      }
  }

  private def concat(ss: List[Vector[String]]): Vector[String] = ss match {
    case v :: Nil => v
    case _        => ss.iterator.flatten.toVector
  }

  /** Two-stream commands: statics come first (annotation order). */
  private def twoStreams(r: Resolved, ctx: Ctx,
                         ss: List[Vector[String]]): (Vector[String], Vector[String]) =
    (ctx.statics, ss) match {
      case (Nil, a :: b :: Nil)    => (a, b)
      case (s :: Nil, a :: Nil)    =>
        // which side is static depends on the clause; comm -13's static is
        // operand 0 (the first file), so statics-first is the convention
        (s, a)
      case other =>
        throw new IllegalArgumentException(s"${r.name}: bad stream arity: " +
          s"${ctx.statics.size} static + ${ss.size} streaming")
    }

  // ========================================================= aggregators

  private val NoCtx = Ctx(Nil, _ => Vector.empty)

  /** Aggregate the ordered partial outputs of a parallelized (P) command
    * (§5 "Aggregator Implementations"). Each aggregator satisfies
    * `aggN(key, r, parts.map(f)) == f(parts.flatten)` for its command `f`
    * (checked property-style in the test suite), so a whole aggregate tree
    * is one call over its leaves. `sort -m`, `uniq`, `head` and `tail` rerun
    * their command on the concatenated parts, since `f(f(x)·f(y)) == f(x·y)`.
    * For `sort -m` that is a keyed merge: the parts are sorted on `sort`'s
    * own keys, each computed once per line, and Timsort finds the k sorted
    * parts as k runs and merges them.
    */
  def aggN(key: String, r: Resolved, parts: List[Vector[String]]): Vector[String] =
    key match {
      case "sort-m" | "uniq" | "head" => whole(r)(NoCtx)(parts)
      case "tail" => tailSpec(r) match {
        case Left(_)  => whole(r)(NoCtx)(parts)
        case Right(_) => throw new IllegalArgumentException("tail -n +K has no aggregator")
      }
      case "uniq-c" =>
        // adjacent payloads are distinct within each part, so count merges
        // happen exactly at part boundaries — one linear scan suffices
        val out = Vector.newBuilder[String]
        val it  = parts.iterator.flatMap(_.iterator)
        var prev: String = null
        var n = 0L
        while (it.hasNext) {
          val (c, l) = parseUniqC(it.next())
          if (l == prev) n += c
          else {
            if (prev != null) out += uniqCLine(n, prev)
            prev = l; n = c
          }
        }
        if (prev != null) out += uniqCLine(n, prev)
        out.result()
      case "wc" | "sum" =>
        // one line of counts per part, summed column by column
        parts.map(p => blankFields(p.head).map(_.toLong))
          .reduceOption((a, b) => a.zip(b).map { case (x, y) => x + y })
          .map(_.mkString(" ")).toVector
      case "tac" => concat(parts.reverse)
      case other => throw new IllegalArgumentException(s"unknown aggregator: $other")
    }

  /** Parse a `uniq -c` output line into (count, payload): leading spaces,
    * then digits (`Char.isDigit`), then one separator char. */
  def parseUniqC(line: String): (Long, String) = {
    var i = 0
    while (i < line.length && line.charAt(i) == ' ') i += 1
    var j = i
    while (j < line.length && line.charAt(j).isDigit) j += 1
    (java.lang.Long.parseLong(line, i, j, 10), line.substring(math.min(j + 1, line.length)))
  }
}
