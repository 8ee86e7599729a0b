package repro.bench

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

import org.scalatest.funsuite.AnyFunSuite

import repro.bench.SynthText._

/** Every generator's bytes, pinned: each digest is the SHA-256 of its
  * lines, each followed by `\n`, as computed before the word-table
  * rewrite of `textLine` and `word`. Every input, every oracle check and
  * every benchmark figure reads these lines, so one changed byte fails.
  */
class SynthTextSpec extends AnyFunSuite {

  private def sha256(n: Int)(line: Long => String): String = {
    val md = MessageDigest.getInstance("SHA-256")
    var i  = 0L
    while (i < n) { md.update((line(i) + "\n").getBytes(UTF_8)); i += 1 }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  List(
    ("0", 0L, "61e051fefd32bbaed65a8fcc42c3f939c75a100ab6e8d34fae1ff44fc20493db"),
    ("7", 7L, "c1ae2e1a95b8d2f834e51e901dccc5ed57a45d346388c9acfd0881102072ba83"),
    ("-5", -5L, "60235e13dc6f4414bd4c82d2db8ee0f46750743f4292ce6b994e113bdcf35ec0"),
    ("mix(41, 99)", mix(41, 99), "4184ac11b7e364f505dacb3462057b6adf312a4e3dbd57f83e8e1371597ca41d"),
  ).foreach { case (label, seed, digest) =>
    test(s"textLine($label): the first 100k lines keep their bytes") {
      assert(sha256(100000)(textLine(seed)) == digest)
    }
  }

  List(
    5000 -> "4420e2de77bbff99a9585d0198e7a815638e1e4a4e64e28532f105d7c389655a",
    2000 -> "aa937ec9e952badbb935ff6aa8638a570635049c0659594fa4db6548171fc367",
  ).foreach { case (vocab, digest) =>
    test(s"word at vocab $vocab keeps its bytes") {
      assert(sha256(100000)(i => word(0x5ca1ab1eL, i, vocab)) == digest)
    }
  }

  List[(String, Long => String, String)](
    ("htmlLine(3)", htmlLine(3),
      "0c1c067631a20dc636b401076541951722c3d56f94d20523777f2c2a41de2915"),
    ("fastqLine(4)", fastqLine(4),
      "c17ca1d12b4476e9fd1a25885f9f2729bd3c2ee5ea4001d8d14abf5152ef3385"),
    ("noaaRecord(2015, 17)", noaaRecord(2015, 17),
      "490801bbfafc445bb07076c5d8cf2726bfa950ef2d2444833101543c4a975401"),
    ("noaaIndexLine(2015)", noaaIndexLine(2015),
      "034f6b132efe6037277a5d571c4cd53795ff619ae434be2a3e326e553b627c93"),
  ).foreach { case (name, gen, digest) =>
    test(s"$name: the first 2k lines keep their bytes") {
      assert(sha256(2000)(gen) == digest)
    }
  }
}
