package repro.bench

import repro.exec.Store
import repro.sim.PipeSim.Cost
import repro.sim.SimBuild.Workload

/** The paper's evaluation scripts (§6), expressed verbatim-style against
  * the synthetic substrate, plus per-script simulation workloads.
  *
  * `setup(store, scale)` registers the script's input files at roughly
  * `scale` thousand lines of main input (tests use small scales, Spark
  * benches larger). `workload` carries the *paper-scale* input sizes and
  * per-command cost overrides for the discrete-event simulator.
  */
object Scripts {

  final case class ScriptBench(
      name: String,
      script: String,
      inputDesc: String,
      simFiles: Map[String, Double],           // file → MB at paper scale
      overrides: Map[String, Cost] = Map.empty,
      setup: (Store, Int) => Unit,
      volumeHintMB: Double = 0.0,
  ) {
    def workload(): Workload = Workload(
      fileMB = n => simFiles.getOrElse(n, 0.05),
      overrides = overrides,
      volumeHintMB = volumeHintMB,
    )
  }

  private val GB = 1024.0

  private def addText(store: Store, name: String, lines: Long, seed: Long): Unit =
    store.add(name, lines, SynthText.textLine(seed))

  // ------------------------------------------------------ §6.1 one-liners

  val nfaRegex = ScriptBench(
    name  = "nfa-regex",
    script = """cat in.txt | tr A-Z a-z | grep -E "(th|t|h)+e" """,
    inputDesc = "1 GB",
    simFiles = Map("in.txt" -> 1 * GB),
    overrides = Map("grep" -> Cost(3.0, sel = 0.4)), // backtracking NFA regex
    setup = (s, k) => addText(s, "in.txt", 1000L * k, 11),
  )

  val sortOne = ScriptBench(
    name  = "sort",
    script = "cat in.txt | tr A-Z a-z | sort",
    inputDesc = "10 GB",
    simFiles = Map("in.txt" -> 10 * GB),
    setup = (s, k) => addText(s, "in.txt", 1000L * k, 12),
  )

  val topN = ScriptBench(
    name  = "top-n",
    script = """cat in.txt | tr -cs A-Za-z "\n" | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 100""",
    inputDesc = "10 GB",
    simFiles = Map("in.txt" -> 10 * GB),
    setup = (s, k) => addText(s, "in.txt", 1000L * k, 13),
  )

  val wf = ScriptBench(
    name  = "wf",
    script = """cat in.txt | tr -cs A-Za-z "\n" | tr A-Z a-z | sort | uniq -c | sort -rn""",
    inputDesc = "10 GB",
    simFiles = Map("in.txt" -> 10 * GB),
    setup = (s, k) => addText(s, "in.txt", 1000L * k, 14),
  )

  val spell = ScriptBench(
    name  = "spell",
    script = """cat in.txt | col | tr -cs A-Za-z "\n" | tr A-Z a-z | sort -u | comm -13 dict.txt -""",
    inputDesc = "3 GB",
    simFiles = Map("in.txt" -> 3 * GB, "dict.txt" -> 1.0),
    setup = (s, k) => {
      addText(s, "in.txt", 1000L * k, 15)
      s.addLines("dict.txt", SynthText.dictionary())
    },
  )

  val shortestScripts = ScriptBench(
    name  = "shortest-scripts",
    script = """cat scripts.txt | xargs file | grep "shell script" | cut -d: -f1 | xargs -n 1 wc -l | sort -n | head -n 15""",
    inputDesc = "85 MB",
    simFiles = Map("scripts.txt" -> 1.0),
    overrides = Map("xargs" -> Cost(40.0, sel = 42.0)), // reads the files
    volumeHintMB = 85.0,
    setup = (s, k) => {
      val n = math.max(40, 4 * k)
      s.add("scripts.txt", n.toLong, i => s"script-$i.sh")
      (0 until n).foreach(j => s.addLines(s"script-$j.sh", SynthText.scriptFile(j)))
    },
  )

  val difference = ScriptBench(
    name  = "difference",
    script = """cat a.txt | tr A-Z a-z | sort > s1.txt
cat b.txt | tr A-Z a-z | sort > s2.txt
diff s1.txt s2.txt | head -n 10""",
    inputDesc = "3 GB",
    simFiles = Map("a.txt" -> 1.5 * GB, "b.txt" -> 1.5 * GB,
                   "s1.txt" -> 1.5 * GB, "s2.txt" -> 1.5 * GB),
    setup = (s, k) => { addText(s, "a.txt", 500L * k, 16); addText(s, "b.txt", 500L * k, 17) },
  )

  val setDifference = ScriptBench(
    name  = "set-difference",
    script = """cat a.txt | tr A-Z a-z | sort > sa.txt
cat b.txt | tr A-Z a-z | sort > sb.txt
comm -23 sa.txt sb.txt""",
    inputDesc = "10 GB",
    simFiles = Map("a.txt" -> 5 * GB, "b.txt" -> 5 * GB,
                   "sa.txt" -> 5 * GB, "sb.txt" -> 5 * GB),
    setup = (s, k) => { addText(s, "a.txt", 500L * k, 18); addText(s, "b.txt", 500L * k, 19) },
  )

  val biGrams = ScriptBench(
    name  = "bi-grams",
    script = """cat in.txt | tr -cs A-Za-z "\n" | tr A-Z a-z > words.txt
tail -n +2 words.txt > next.txt
paste words.txt next.txt | sort | uniq""",
    inputDesc = "10 GB",
    simFiles = Map("in.txt" -> 10 * GB, "words.txt" -> 9 * GB, "next.txt" -> 9 * GB),
    setup = (s, k) => addText(s, "in.txt", 1000L * k, 20),
  )

  val sortSort = ScriptBench(
    name  = "sort-sort",
    script = "cat in.txt | tr A-Z a-z | sort | sort -r",
    inputDesc = "10 GB",
    simFiles = Map("in.txt" -> 10 * GB),
    setup = (s, k) => addText(s, "in.txt", 1000L * k, 21),
  )

  val oneLiners: List[ScriptBench] = List(
    nfaRegex, sortOne, topN, wf, spell, shortestScripts,
    difference, setDifference, biGrams, sortSort)

  // --------------------------------------------------------- §6.2 Unix50

  /** 31 Unix50-style pipelines (unofficial-solutions flavour, §6.2): heavy
    * use of standard commands, written non-expertly on purpose; #25–30 use
    * `awk`/`sed -n`, which PaSh must not parallelize. */
  val unix50: List[ScriptBench] = {
    val pipelines = List(
      /* 1 */ """cat unix50.txt | tr A-Z a-z | grep the | wc -l""",
      /* 2 */ """cat unix50.txt | cut -d " " -f 1 | sort | uniq -c | sort -rn | head -n 5""",
      /* 3 */ """cat unix50.txt | head -n 1000 | tr A-Z a-z""",
      /* 4 */ """cat unix50.txt | tr -s " " | cut -d " " -f 2 | sort | uniq | head -n 10""",
      /* 5 */ """cat unix50.txt | tr A-Z a-z | sort""",
      /* 6 */ """cat unix50.txt | tr -cs A-Za-z "\n" | sort | uniq | wc -l""",
      /* 7 */ """cat unix50.txt | tr -cs A-Za-z "\n" | sort | uniq -c | sort -rn | head -n 1""",
      /* 8 */ """cat unix50.txt | sort -r | head -n 20""",
      /* 9 */ """cat unix50.txt | cut -c 1-3 | sort | uniq -c | sort -n | tail -n 3""",
      /*10 */ """cat unix50.txt | grep the | tr A-Z a-z | grep -v que | tr -s " " | cut -d " " -f 3 | grep -c w""",
      /*11 */ """cat unix50.txt | tr -s " " | cut -d " " -f 1 | rev | head -n 50""",
      /*12 */ """cat unix50.txt | wc -w""",
      /*13 */ """cat unix50.txt | tr A-Z a-z | tr -cs a-z "\n" | grep -x the | wc -l""",
      /*14 */ """cat unix50.txt | cut -d " " -f 2 | grep -c a""",
      /*15 */ """cat unix50.txt | grep a | grep e | grep i | grep o | grep u | wc -l""",
      /*16 */ """cat unix50.txt | rev | cut -c 1-2 | sort | uniq -c | head -n 10""",
      /*17 */ """cat unix50.txt | tr " " "\n" | grep x | head -n 100""",
      /*18 */ """cat unix50.txt | fold -w 30 | wc -l""",
      /*19 */ """cat unix50.txt | tr -cs A-Za-z "\n" | sort -u | comm -23 - dict.txt""",
      /*20 */ """cat unix50.txt | cut -d " " -f 1 | sort | uniq -c | sort -rn""",
      /*21 */ """cat unix50.txt | tr A-Z a-z | sort | uniq | sort -r | head -n 30""",
      /*22 */ """cat unix50.txt | tail -n 1000 | tr A-Z a-z | grep the""",
      /*23 */ """cat unix50.txt | sort | sed "s/ /-/g" | head -n 100""",
      /*24 */ """cat unix50.txt | tr -d aeiou | sort | head -n 40""",
      /*25 */ """cat unix50.txt | awk '{print $2}' | sort | uniq -c""",
      /*26 */ """cat unix50.txt | awk '{print $2, $1}' | sort -r | head -n 10""",
      /*27 */ """cat unix50.txt | sed -n 2p""",
      /*28 */ """cat unix50.txt | cut -d " " -f 4 | awk '{s+=$1} END {print s}'""",
      /*29 */ """cat unix50.txt | sed -n 100p""",
      /*30 */ """cat unix50.txt | awk '{print $1}' | uniq | wc -l""",
      /*31 */ """cat unix50.txt | tr " " "\n" | sort | uniq -c | sort -rn | head -n 3""",
    )
    pipelines.zipWithIndex.map { case (p, i) =>
      ScriptBench(
        name = f"unix50-${i + 1}%02d",
        script = p,
        inputDesc = "10 GB",
        simFiles = Map("unix50.txt" -> 10 * GB, "dict.txt" -> 1.0),
        setup = (s, k) => {
          addText(s, "unix50.txt", 1000L * k, 22)
          s.addLines("dict.txt", SynthText.dictionary())
        },
      )
    }
  }

  // ----------------------------------------------------------- §6.3 NOAA

  val noaaBase = "ftp://ftp.ncdc.noaa.gov/pub/data/noaa"

  val noaa = ScriptBench(
    name = "noaa",
    script =
      s"""base=$noaaBase
for y in {2015..2019}; do
  curl $$base/$$y | grep gz | tr -s " " | cut -d " " -f 9 | sed "s;^;$$base/$$y/;" | xargs -n 1 curl -s | gunzip | cut -c 89-92 | grep -iv 999 | sort -rn | head -n 1 | sed "s/^/Maximum temperature for $$y is: /"
done""",
    inputDesc = "82 GB",
    // per-year: index is tiny; downloads are ~16.4 GB/year compressed-ish
    simFiles = (2015 to 2019).map(y => s"$noaaBase/$y" -> 0.05).toMap,
    overrides = Map(
      // xargs curl -s: tiny URL-list input → 16.4 GB/year of downloads.
      // Per-connection throughput ~42 MB/s (matches the paper's sequential
      // preprocessing rate of ~41 MB/s); parallel connections share the
      // 1 Gbps NIC. sel amplifies the post-sed URL-list bytes
      // (0.05 MB index × 0.9 grep × 0.1 cut × 1.05 sed ≈ 0.0047 MB).
      "xargs"  -> Cost(42.0, sel = 16.4 * 1024 / 0.004725, usesNet = true),
      "grep"   -> Cost(120.0, sel = 0.9), // both greps are low-selectivity here
      "gunzip" -> Cost(250.0, sel = 1.0), // synthetic member codec (1:1)
    ),
    volumeHintMB = 16.4 * 1024, // per-year download volume
    setup = (s, k) => {
      val stations = math.max(4, k / 4)
      (2015 to 2019).foreach { y =>
        s.add(s"$noaaBase/$y", stations.toLong, SynthText.noaaIndexLine(y))
      }
      s.addFallback { name =>
        val re = s"""$noaaBase/(\\d{4})/station-(\\d+)-\\d{4}\\.gz""".r
        name match {
          case re(y, st) =>
            Some(s.GenFile(50L, SynthText.noaaGzRecord(y.toInt, st.toLong)))
          case _ => None
        }
      }
      ()
    },
  )

  // ------------------------------------------------------ §6.4 Wikipedia

  val wikipedia = ScriptBench(
    name = "wikipedia",
    script =
      """cat urls.txt | xargs -n 1 curl -s | html-to-text | iconv -f utf-8 -t ascii | tr -cs A-Za-z "\n" | tr A-Z a-z | grep -vx the | word-stem | sort | uniq -c | sort -rn > index.txt""",
    inputDesc = "1.3 GB (1% of Wikipedia)",
    simFiles = Map("urls.txt" -> 0.01),
    overrides = Map(
      "xargs" -> Cost(200.0, sel = 1.3 * 1024 / 0.01), // local page cache
    ),
    volumeHintMB = 1.3 * 1024,
    setup = (s, k) => {
      val pages = math.max(10, k)
      s.add("urls.txt", pages.toLong, i => s"https://en.wikipedia.org/wiki/P$i")
      s.addFallback { name =>
        val re = """https://en\.wikipedia\.org/wiki/P(\d+)""".r
        name match {
          case re(p) => Some(s.GenFile(40L, SynthText.htmlLine(p.toLong)))
          case _     => None
        }
      }
      ()
    },
  )

  // ------------------------------------------------------------ §6.5 bio

  val bio = ScriptBench(
    name = "bio",
    script =
      """cat reads.fastq | trim-adapter | quality-filter | sort | uniq -c | sort -rn | head -n 20""",
    inputDesc = "FASTQ reads",
    simFiles = Map("reads.fastq" -> 4 * GB),
    setup = (s, k) => s.add("reads.fastq", 1000L * k, SynthText.fastqLine(23)),
  )

  val all: List[ScriptBench] = oneLiners ++ unix50 ++ List(noaa, wikipedia, bio)
}
