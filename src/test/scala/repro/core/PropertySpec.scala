package repro.core

import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import repro.{SparkSpec, TestData}
import repro.dist.DistExecutor

/** Property tests over row-level OP semantics (raw ScalaCheck; the
  * scalatest/scalacheck bridge artifact is not available offline).
  */
class PropertySpec extends SparkSpec with TestData {

  private val textGen: Gen[String] = Gen.listOf(Gen.oneOf(
    Gen.alphaNumStr.map(_.take(8)), Gen.const(" "), Gen.const("\n"),
    Gen.oneOf("the", "and", "of", "中", "!", ".", "damn"),
  )).map(_.mkString(" ")).map(_.take(2000))

  private def check(name: String, p: Prop, n: Int = 60): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), p)
    assert(res.passed, s"$name: ${res.status}")
  }

  /** Null, empty, control characters, CJK and a 1 MB document. */
  private val hostile: Seq[String] = Seq(
    null, "", "\u0000\u0001\u0002 bell\u0007 esc\u001b[0m\r\n\t tab\u0085 line\u2028 end",
    "中文文本的测试，没有空格。第二句话！  混合 English words 和 中文。",
    "the quick brown fox jumps over the lazy dog and runs back home.\n" * 16500,
  )

  private val metas: Seq[Map[String, String]] = Seq(
    Map.empty, Map("language" -> "EN", "stars" -> "12", "suffix" -> ".py"), Map("language" -> "ZH", "stars" -> "x"))

  private val metaFilters: Seq[Op] = Seq(
    Filters.MetaFieldFilter("language", Seq("EN")), Filters.StarsCountFilter(5), Filters.SuffixFilter())

  /** Row-OP lists: distinct filters (so no two share a stats key), mappers
    * and meta filters interleaved, then optionally fused and reordered.
    */
  private val opListGen: Gen[Seq[Op]] = for {
    mappers <- Gen.choose(0, 4).flatMap(Gen.pick(_, Mappers.all))
    filters <- Gen.choose(1, 5).flatMap(Gen.pick(_, Filters.allStats ++ metaFilters))
    seed    <- Gen.long
    fuse    <- Gen.oneOf(true, false)
    reorder <- Gen.oneOf(true, false)
  } yield OpFusion.plan(new scala.util.Random(seed).shuffle(mappers.toSeq ++ filters.toSeq), fuse, reorder)

  private val docGen: Gen[(String, Map[String, String])] =
    Gen.zip(Gen.frequency(1 -> Gen.oneOf(hostile), 3 -> textGen), Gen.oneOf(metas))

  test("whitespace normalization is idempotent") {
    val m = Mappers.WhitespaceNormalizationMapper()
    check("ws-idem", Prop.forAll(textGen)(t => m.mapText(m.mapText(t)) == m.mapText(t)))
  }

  test("lowercase is idempotent") {
    val m = Mappers.LowercaseMapper()
    check("lc-idem", Prop.forAll(textGen)(t => m.mapText(m.mapText(t)) == m.mapText(t)))
  }

  test("remove-links never leaves an http token behind") {
    val m = Mappers.RemoveLinksMapper()
    check("links", Prop.forAll(textGen)(t => !m.mapText(t + " http://x.y/z end").contains("http://")))
  }

  test("tokenizer tokens are nonempty, lowercase, alnum-or-CJK") {
    check("tok", Prop.forAll(textGen) { t =>
      Tokenizers.words(t).forall(w =>
        w.nonEmpty && w == w.toLowerCase &&
          w.forall(c => Character.isLetterOrDigit(c) || Tokenizers.isCjk(c)))
    })
  }

  test("filter stats are total and NaN-free on arbitrary text") {
    check("stats-total", Prop.forAll(textGen) { t =>
      Filters.allStats.forall { f =>
        val stats = f.computeStatsRow(new TextContext(t))
        f.statsKeys.toSet.subsetOf(stats.keySet) && stats.values.forall(v => !v.isNaN)
      }
    })
  }

  test("tightening a threshold only removes samples (monotonicity)") {
    val loose = Filters.TextLengthFilter(minLen = 1)
    val tight = Filters.TextLengthFilter(minLen = 100)
    check("monotone", Prop.forAll(textGen) { t =>
      val s = loose.computeStatsRow(new TextContext(t))
      !tight.keepRow(s) || loose.keepRow(s)
    })
  }

  test("fused filter decision equals conjunction of members") {
    val members = Seq(Filters.WordCountFilter(3), Filters.StopwordRatioFilter(0.1),
      Filters.FlaggedWordsFilter(0.05))
    val fused = FusedFilter(members)
    check("fused-conj", Prop.forAll(textGen) { t =>
      fused.keepRow(fused.computeStatsRow(new TextContext(t))) ==
        members.forall(m => m.keepRow(m.computeStatsRow(new TextContext(t))))
    })
  }

  test("content hash is whitespace/case invariant") {
    check("chash", Prop.forAll(textGen) { t =>
      Hashing.contentHash(t) == Hashing.contentHash(t.toUpperCase.replaceAll("\\s+", "  "))
    })
  }

  test("simhash is permutation-invariant over token multisets") {
    val toks = Gen.listOfN(20, Gen.alphaLowerStr.map(_.take(6)))
    check("simhash-perm", Prop.forAll(toks, Gen.long) { (tokens, seed) =>
      val shuffled = new scala.util.Random(seed).shuffle(tokens)
      Hashing.simhash(tokens.toArray) == Hashing.simhash(shuffled.toArray)
    })
  }

  test("minhash signature length and determinism") {
    val toks = Gen.listOfN(15, Gen.alphaLowerStr.map(_.take(6)))
    check("minhash-det", Prop.forAll(toks) { tokens =>
      val s1 = Hashing.minhash(tokens.toArray, 64, 3, 7)
      val s2 = Hashing.minhash(tokens.toArray, 64, 3, 7)
      s1.length == 64 && s1.toSeq == s2.toSeq
    })
  }

  test("a row program equals a fold of one-OP programs and DistExecutor.applyRow") {
    check("row-program", Prop.forAll(opListGen, docGen) { case (ops, (text, meta)) =>
      val whole = RowProgram(ops)(text, meta, Map.empty)
      val folded = ops.foldLeft(Option((text, Map.empty[String, Double]))) { (acc, op) =>
        acc.flatMap { case (t, s) => RowProgram(Seq(op))(t, meta, s) }
      }
      val reference = DistExecutor.applyRow(ops, DistExecutor.Doc(0L, text, meta)).map(d => (d.text, d.stats))
      whole == folded && whole == reference
    }, n = 200)
  }

  test("Spark segment path, one-OP fold and applyRow agree on hostile text") {
    val docs = hostile.zipWithIndex.map { case (t, i) => (t, metas(i % metas.size)) } ++
      (0 until 24).map(i => (textGen.pureApply(Gen.Parameters.default, Seed(i.toLong)), metas(i % metas.size)))
    val df = docsWithMeta(docs: _*).localCheckpoint(true)
    def rows(out: DataFrame): Seq[(Long, String, Map[String, Double])] =
      out.select(Schema.Id, Schema.Text, Schema.Stats).collect()
        .map(r => (r.getLong(0), r.getString(1), r.getMap[String, Double](2).toMap)).sortBy(_._1).toSeq
    var survivors = 0
    (0 until 12).foreach { i =>
      val ops = opListGen.pureApply(Gen.Parameters.default, Seed(1000L + i))
      val reference = docs.zipWithIndex.flatMap { case ((t, m), id) =>
        DistExecutor.applyRow(ops, DistExecutor.Doc(id.toLong, t, m)).map(d => (d.id, d.text, d.stats))
      }
      val label = ops.map(_.name).mkString(" → ")
      assert(rows(Pipeline(ops).run(df)) == reference, s"segment path: $label")
      assert(rows(ops.foldLeft(df)((d, op) => op(d))) == reference, s"one-OP fold: $label")
      survivors += reference.size
    }
    assert(survivors > 0)
  }

  test("dist row pipeline composes like manual application") {
    val ops: Seq[Op] = Seq(Mappers.LowercaseMapper(), Filters.TextLengthFilter(minLen = 5))
    check("dist-row", Prop.forAll(textGen) { t =>
      val viaExec = repro.dist.DistExecutor.applyRow(ops, repro.dist.DistExecutor.Doc(0L, t, Map.empty)).map(_.text)
      val lowered = t.toLowerCase
      viaExec == (if (lowered.length >= 5) Some(lowered) else None)
    })
  }
}
