package repro.core

import Annotations._
import FileOperands._
import PClass._

/** PaSh's standard library of annotations (§3.2) plus the POSIX/GNU
  * parallelizability study (§3.1, Tab. 1).
  *
  * Detailed records (flags → class/inputs/aggregator) exist for every
  * command used by the evaluation scripts, and only they license a
  * transform. The bare classes of GNU Coreutils and POSIX are Tab. 1 data.
  */
object AnnotationLib {

  // ----------------------------------------------------- detailed records

  private def filterIn = List(In(OperandsFrom(0)))

  private def simple(name: String, cls: PClass, agg: Option[String] = None,
                     valueFlags: Set[String] = Set.empty,
                     combined: Boolean = false, files: FileOperands = Concat): Annotation =
    Annotation(name, List(Clause(Always, cls, filterIn, agg)), valueFlags,
               shortCombined = combined, files = files)

  /** Detailed annotation records, keyed by command name. 47+ commands. */
  val records: Map[String, Annotation] = List(
    // --- stateless workhorses -------------------------------------------
    Annotation("cat", List(
      Clause(Flag("-n"), Pure, filterIn), // line numbering: stateful
      Clause(Always, Stateless, filterIn),
    )),
    // tr's operands are character sets, never files: stdin only
    Annotation("tr", List(Clause(Always, Stateless, List(In(StdinRef)))),
               shortCombined = true),
    Annotation("grep", {
      // operand 0 is the pattern, and files (if any) start at operand 1,
      // unless -e or -f gives the pattern: then every operand is a file
      def clauses(p: Pred, cls: PClass, agg: Option[String] = None) = List(
        Clause(p && (Flag("-e") || Flag("-f")), cls, filterIn, agg),
        Clause(p, cls, List(In(OperandsFrom(1))), agg))
      clauses(Flag("-c"), Pure, Some("sum")) ++ clauses(Flag("-n"), Pure) ++
        clauses(Always, Stateless)
    }, valueFlags = Set("-e", "-f"), shortCombined = true, files = AtMostOne),
    simple("cut", Stateless, valueFlags = Set("-d", "-f", "-c")),
    Annotation("sed", List(
      // operand 0 is the script; substitution-only scripts are per-line maps
      Clause(!Flag("-n") && ArgMatch("^s[/;,|#].*"), Stateless,
             List(In(OperandsFrom(1)))),
      Clause(Always, NonParallel, List(In(OperandsFrom(1)))),
    ), valueFlags = Set("-e")),
    simple("rev", Stateless),
    simple("col", Stateless),
    simple("iconv", Stateless, valueFlags = Set("-f", "-t")),
    // operands are path names, not files: no input stream
    Annotation("basename", List(Clause(Always, Stateless, Nil))),
    Annotation("dirname", List(Clause(Always, Stateless, Nil))),
    simple("fold", Stateless, valueFlags = Set("-w")),
    simple("expand", Stateless),
    simple("unexpand", Stateless),
    // gzip as a per-member stream codec; our synthetic substrate is per-line
    simple("gunzip", Stateless, files = StdinOnly),
    simple("zcat", Stateless),
    // annotated third-party commands (§6.4 / §6.5): trivially described as S
    simple("url-extract", Stateless),
    simple("html-to-text", Stateless),
    simple("word-stem", Stateless),
    simple("trim-adapter", Stateless),  // cutadapt-like (§6.5)
    simple("quality-filter", Stateless),

    // --- parallelizable pure --------------------------------------------
    Annotation("sort", List(
      Clause(Flag("-m"), Pure, filterIn), // already an aggregator
      Clause(Always, Pure, filterIn, Some("sort-m")),
    ), valueFlags = Set("-k", "-t", "-S"), shortCombined = true),
    Annotation("uniq", List(
      Clause(Flag("-c"), Pure, filterIn, Some("uniq-c")),
      Clause(Always, Pure, filterIn, Some("uniq")),
    ), shortCombined = true, files = AtMostOne),
    Annotation("wc", List(
      Clause(Always, Pure, filterIn, Some("wc")),
    ), shortCombined = true, files = StdinOnly),
    Annotation("head", List(
      Clause(Always, Pure, filterIn, Some("head")),
    ), valueFlags = Set("-n", "-c"), files = AtMostOne),
    Annotation("tail", List(
      // `tail -n +K` (drop a prefix) has no per-chunk map that composes
      // with a pure aggregate — stays sequential (conservative)
      Clause(ArgMatch("^\\+[0-9]+$"), Pure, filterIn),
      Clause(Always, Pure, filterIn, Some("tail")),
    ), valueFlags = Set("-n", "-c"), files = AtMostOne),
    Annotation("tac", List(
      Clause(Always, Pure, filterIn, Some("tac")),
    ), files = AtMostOne),
    Annotation("nl", List(
      Clause(Always, Pure, filterIn),
    )),
    Annotation("comm", List(
      Clause(Flag("-1") && Flag("-3"), Stateless,
             List(In(OperandRef(0), static = true), In(OperandRef(1)))),
      Clause(Flag("-2") && Flag("-3"), Stateless,
             List(In(OperandRef(1), static = true), In(OperandRef(0)))),
      Clause(Always, Pure, List(In(OperandRef(0)), In(OperandRef(1)))),
    ), stdinHyphen = true, shortCombined = true, files = Separate),
    Annotation("join", List(
      Clause(Always, Pure, List(In(OperandRef(0)), In(OperandRef(1)))),
    ), stdinHyphen = true, valueFlags = Set("-1", "-2", "-t", "-j"), files = Separate),
    Annotation("paste", List(
      // single-input `paste -s`-free invocations are per-line; multi-input
      // or serial mode interleaves streams — keep sequential.
      Clause(Always, Pure, filterIn),
    ), stdinHyphen = true, valueFlags = Set("-d"), files = Separate),

    // --- non-parallelizable pure ----------------------------------------
    simple("sha1sum", NonParallel, files = StdinOnly),
    simple("md5sum", NonParallel, files = StdinOnly),
    simple("sha256sum", NonParallel, files = StdinOnly),
    simple("cksum", NonParallel, files = StdinOnly),
    Annotation("awk", List(
      // operand 0 is the program; files start at operand 1
      Clause(Always, NonParallel, List(In(OperandsFrom(1)))),
    ), valueFlags = Set("-F", "-v", "-f")),
    simple("bc", NonParallel),
    simple("diff", NonParallel, files = Separate),
    simple("cmp", NonParallel, files = Separate),
    simple("od", NonParallel),
    simple("pr", NonParallel, files = StdinOnly), // its page headers name the file
    simple("tsort", NonParallel, files = AtMostOne),
    simple("shuf", NonParallel, files = AtMostOne),
    // network fetch: read-only effect; a pure-ish source PaSh can keep
    // inside a DFG but never replicates (cf. Fig. 3: curl's output is split)
    simple("curl", NonParallel, valueFlags = Set("-o", "-H")),
    simple("wget", NonParallel, valueFlags = Set("-O")),
    // pure sources: operands are data/arguments, there is no input stream
    Annotation("echo", List(Clause(Always, NonParallel, Nil))),
    Annotation("seq", List(Clause(Always, NonParallel, Nil))),
    // per-operand type detection, used via xargs; alone, our kernel reads
    // the names from stdin, and GNU's output names each operand
    simple("file", Stateless, files = StdinOnly),

    // --- higher-order ----------------------------------------------------
    // items arrive on stdin; the words after xargs's own `-n N` are the
    // inner command, resolved into `Resolved.inner`
    Annotation("xargs",
      List(Clause(Always, SideEffectful, List(In(StdinRef)))),
      valueFlags = Set("-n"), higherOrder = true),
  ).map(a => a.name -> a).toMap

  /** Read-only fetches: under `xargs` a per-line map in any batching. */
  private val readOnlyFetch: Set[String] = Set("curl", "wget", "cat")

  /** Resolve an invocation to its parallelizability view; a command
    * without a record is [[Annotations.opaque]].
    *
    * `xargs cmd args...` is higher-order (§3.2): its own options are split
    * from its own words only, the inner command is resolved once into
    * `inner`, and its class is derived from the inner command's. Only a
    * read-only fetch prints the same lines in any batching. Every other
    * pure command's output depends on the batch (`wc`'s `total` line, GNU
    * `grep`'s file-name prefix once a batch holds two files, GNU `file`'s
    * padding to the batch's longest name), so it is (S) only under `-n 1`.
    */
  def resolve(name: String, args: List[String]): Resolved = records.get(name) match {
    case Some(a) if a.higherOrder =>
      val (own, cmd) = xargsWords(args)
      val inner      = cmd.headOption.map(resolve(_, cmd.tail))
      val r          = a.resolve(own)
      val cls = inner.fold[PClass](SideEffectful)(i => i.cls match {
        case SideEffectful => SideEffectful
        case _ if r.flagVals.get("-n").contains("1") => Stateless
        // `cat -n` (P) numbers lines across the batch
        case Stateless | NonParallel if readOnlyFetch.contains(i.name) => Stateless
        case _             => SideEffectful
      })
      r.copy(args = args, cls = cls, inner = inner)
    case Some(a) => a.resolve(args)
    case None    => opaque(name, args)
  }

  /** The view of an invocation whose stdin is a regular file (`cmd < f`).
    * GNU `wc` then pads several counts to the digits of the file's size,
    * which no chunk's counts tell an aggregator, so `wc` stays sequential. */
  def readingFile(r: Resolved): Resolved =
    r.copy(stdinFile = true, agg = if (r.name == "wc") None else r.agg)

  /** `xargs`'s own options and the inner command's words. `-n N` is the
    * only option its kernel implements; any other (`-L`, `--max-args`,
    * `-I`, `-P`, …) raises, since it changes what runs. */
  private def xargsWords(words: List[String]): (List[String], List[String]) = words match {
    case "-n" :: k :: cmd if k.matches("[1-9][0-9]*") => (List("-n", k), cmd)
    case w :: cmd if w.matches("-n[1-9][0-9]*")      => (List(w), cmd)
    case w :: _ if w.startsWith("-") => throw new IllegalArgumentException(s"xargs: unsupported option $w")
    case cmd                                          => (Nil, cmd)
  }

  // -------------------------------------------------------- Tab. 1 study

  /** GNU Coreutils classification (100 commands). Individual assignments
    * are ours — the paper publishes only the counts (22/8/13/57). */
  val coreutils: List[(String, PClass)] = {
    val s = List("base32", "base64", "basenc", "basename", "cat", "cut",
      "dirname", "echo", "expand", "factor", "false", "fold", "numfmt",
      "paste", "pathchk", "printf", "realpath", "seq", "tr", "true",
      "unexpand", "yes").map(_ -> Stateless)
    val p = List("head", "nl", "shuf", "sort", "tac", "tail", "uniq", "wc")
      .map(_ -> Pure)
    val n = List("b2sum", "cksum", "md5sum", "od", "pr", "ptx", "sha1sum",
      "sha224sum", "sha256sum", "sha384sum", "sha512sum", "sum", "tsort")
      .map(_ -> NonParallel)
    val e = List("arch", "chcon", "chgrp", "chmod", "chown", "chroot", "cp",
      "csplit", "date", "dd", "df", "dir", "dircolors", "du", "env",
      "groups", "hostid", "hostname", "id", "install", "kill", "link", "ln",
      "logname", "ls", "mkdir", "mkfifo", "mknod", "mktemp", "mv", "nice",
      "nohup", "nproc", "pinky", "pwd", "readlink", "rm", "rmdir", "runcon",
      "shred", "sleep", "split", "stat", "stdbuf", "stty", "sync", "tee",
      "test", "timeout", "touch", "truncate", "tty", "uname", "unlink",
      "uptime", "users", "vdir").map(_ -> SideEffectful)
    s ++ p ++ n ++ e
  }

  /** POSIX utilities classification (155 commands). */
  val posix: List[(String, PClass)] = {
    val s = List("asa", "basename", "cat", "col", "cut", "dd", "dirname",
      "echo", "egrep", "expand", "expr", "false", "fgrep", "fold", "grep",
      "iconv", "paste", "pathchk", "printf", "sed", "strings", "test", "tr",
      "true", "unexpand", "uudecode", "uuencode", "what").map(_ -> Stateless)
    val p = List("comm", "head", "join", "nl", "sort", "tail", "tsort",
      "uniq", "wc").map(_ -> Pure)
    val n = List("awk", "bc", "c99", "cksum", "cmp", "compress", "diff",
      "lex", "m4", "od", "pr", "uncompress", "yacc").map(_ -> NonParallel)
    val e = List("admin", "alias", "ar", "at", "batch", "bg", "cal", "cd",
      "cflow", "chgrp", "chmod", "chown", "cp", "crontab", "csplit",
      "ctags", "date", "delta", "df", "du", "ed", "env", "ex", "fc", "fg",
      "file", "find", "fuser", "gencat", "get", "getconf", "getopts",
      "hash", "id", "ipcrm", "ipcs", "jobs", "kill", "link", "ln",
      "locale", "localedef", "logger", "logname", "lp", "ls", "mailx",
      "make", "man", "mkdir", "mkfifo", "mknod", "more", "mv",
      "newgrp", "nice", "nm", "nohup", "patch", "pax", "prs", "ps", "pwd",
      "qalter", "qdel", "qhold", "qmove", "qmsg", "qrerun", "qrls",
      "qselect", "qsig", "qstat", "qsub", "read", "renice", "rm", "rmdel",
      "rmdir", "sact", "sccs", "sh", "sleep", "split", "stty", "tabs",
      "tee", "time", "touch", "tput", "tty", "type", "ulimit",
      "umask", "unalias", "uname", "unget", "unlink", "uucp", "uustat",
      "uux", "val", "vi", "who", "xargs")
      .map(_ -> SideEffectful)
    s ++ p ++ n ++ e
  }

  /** Tab. 1 counts: class → (coreutils count, posix count). */
  def study: Map[PClass, (Int, Int)] =
    PClass.all.map { c =>
      c -> (coreutils.count(_._2 == c), posix.count(_._2 == c))
    }.toMap
}
