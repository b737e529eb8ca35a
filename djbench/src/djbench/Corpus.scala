package djbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import org.apache.spark.sql.SparkSession
import repro.core.{Formatters, Schema}
import repro.corpus.TextGen
import repro.exp.Corpora

/** A generated input: a JSONL dataset directory and its texts in sample-id
  * order, which is the order in which they were written.
  */
final case class Corpus(texts: IndexedSeq[String], path: Path, facts: Seq[(String, Any)]) {
  def bytes: Long = Fs.bytes(path)
}

object Corpus {
  /** Input shards. Spark reads each small file as one partition, so a
    * sharded dataset lets a small corpus use every core, as a large one would.
    */
  val Shards = 8

  /** Words per generated document, in every workload. */
  val DocWords = 250

  /** Write the texts as `Shards` JSONL files of one `{"text": …}` object per
    * line under the directory `path`, in order. Spark numbers samples by
    * partition and orders the partitions of small files by file size, largest
    * first, so the files get strictly decreasing sizes and sample ids follow
    * the written order ([[idOrder]] reads it back).
    */
  def write(texts: IndexedSeq[String], path: Path, facts: Seq[(String, Any)]): Corpus = {
    Files.createDirectories(path)
    val lines = texts.map(t => Main.json.writeValueAsString(Map("text" -> t)) + "\n")
    val sizes = lines.map(_.getBytes(UTF_8).length.toLong)
    // Shard i aims at avg + (3.5 - i) * step bytes. Cutting at the nearest
    // line misses each aim by less than a line, so a step of three lines or
    // more keeps the sizes strictly decreasing.
    val avg = sizes.sum.toDouble / Shards
    val step = math.max(0.04 * avg, 3.0 * sizes.max)
    require(avg > (Shards / 2.0) * step, s"corpus of ${texts.size} texts too small for $Shards shards")
    val targets = (1 to Shards).map(k => k * avg + (0 until k).map(i => ((Shards - 1) / 2.0 - i) * step).sum)
    val cumulative = sizes.scanLeft(0L)(_ + _).tail
    val ends = targets.map(t => cumulative.indexWhere(_ >= t) + 1)
    val bounds = (0 +: ends).sliding(2).map(p => (p(0), p(1))).toSeq
    val shardBytes = bounds.map { case (a, b) => sizes.slice(a, b).sum }
    require(shardBytes.sliding(2).forall(p => p(0) > p(1)), s"shard sizes not strictly decreasing: $shardBytes")
    bounds.zipWithIndex.foreach { case ((a, b), i) =>
      Files.write(path.resolve(f"part-$i%05d.jsonl"), lines.slice(a, b).mkString.getBytes(UTF_8))
    }
    Corpus(texts, path, facts)
  }

  /** The dataset's texts in sample-id order, as `JsonlFormatter` loads them. */
  def idOrder(spark: SparkSession, c: Corpus): IndexedSeq[String] =
    Formatters.JsonlFormatter(c.path.toString).load(spark).select(Schema.Id, Schema.Text).collect()
      .map(r => (r.getLong(0), r.getString(1))).sortBy(_._1).map(_._2).toIndexedSeq

  /** `Corpora.webMix` documents of about `DocWords` words, in id order. */
  def web(spark: SparkSession, nDocs: Int, seed: Long): IndexedSeq[String] =
    TextGen.docs(spark, Corpora.webMix, nDocs.toLong, seed, DocWords)
      .orderBy("id").select("text").collect().map(_.getString(0)).toIndexedSeq
}

/** Near-duplicate corpus generator. A share `clusteredShare` of the documents
  * belongs to near-duplicate clusters of two shapes, in equal numbers:
  *  - copies: one clean document plus 1–5 copies, each edited independently
  *    from it;
  *  - revision chains of 2–16 documents, each an edit of the previous one.
  * Documents have about 250 words. An edit touches each word with
  * probability 0.02: half of the touched words are replaced by a vocabulary
  * word, a quarter deleted and a quarter followed by an inserted word. The other documents are distinct clean texts.
  * Cluster sizes are not drawn but cycle through their ranges (2, 3, …,
  * max, 2, 3, …), so every seed gives the same cluster shapes and the same
  * longest chain; the seed picks the texts, the edits and the document order.
  * Documents are shuffled so that cluster members are not adjacent in the
  * input, but a chain's revisions keep their order, as a crawl that meets
  * them over time would: its first revision has the smallest sample id.
  */
object NearDupCorpus {
  private val MaxCopies = 6
  private val MaxChain = 16
  private val EditRate = 0.02

  final case class Shape(docs: Int, copyClusters: Seq[Int], chains: Seq[Int]) {
    def clustered: Int = copyClusters.sum + chains.sum
    def clusteredShare: Double = clustered.toDouble / docs
    def longestChain: Int = if (chains.isEmpty) 0 else chains.max

    def facts: Seq[(String, Any)] = Seq(
      "clustered_share" -> clusteredShare,
      "copy_clusters" -> copyClusters.size,
      "copy_cluster_sizes" -> histogram(copyClusters),
      "chains" -> chains.size,
      "chain_lengths" -> histogram(chains),
      "longest_chain" -> longestChain,
    )

    private def histogram(xs: Seq[Int]): Map[String, Int] =
      xs.groupBy(identity).toSeq.sortBy(_._1).map { case (k, v) => k.toString -> v.size }.toMap
  }

  def edit(text: String, r: java.util.Random): String = {
    val out = new StringBuilder(text.length + 16)
    text.split(" ").foreach { w =>
      val u = r.nextDouble()
      def word() = TextGen.vocab(r.nextInt(TextGen.VocabSize))
      val piece =
        if (u >= EditRate) w
        else if (u < EditRate / 2) word()
        else if (u < EditRate * 3 / 4) ""
        else w + " " + word()
      if (piece.nonEmpty) { if (out.nonEmpty) out.append(' '); out.append(piece) }
    }
    out.toString
  }

  def generate(seed: Long, nDocs: Int, clusteredShare: Double = 0.4): (IndexedSeq[String], Shape) = {
    val r = TextGen.rng(seed ^ 0x6e6475L)
    var next = 0L
    def clean(): String = { next += 1; TextGen.cleanText(seed * 1000003L + next, Corpus.DocWords) }
    val docs = scala.collection.mutable.ArrayBuffer.empty[String]
    val copies = scala.collection.mutable.ArrayBuffer.empty[Int]
    val chains = scala.collection.mutable.ArrayBuffer.empty[Int]
    val chainOf = scala.collection.mutable.ArrayBuffer.empty[Int] // per doc: its chain's index, or -1
    val target = math.round(nDocs * clusteredShare).toInt
    var cluster = 0
    while (docs.size < target) {
      val room = target - docs.size
      cluster += 1
      if (cluster % 2 == 1) {
        val k = math.min(room, 2 + (cluster / 2) % (MaxCopies - 1))
        val base = clean()
        docs += base
        (1 until k).foreach(_ => docs += edit(base, r))
        (0 until k).foreach(_ => chainOf += -1)
        copies += k
      } else {
        val k = math.min(room, 2 + (cluster / 2 - 1) % (MaxChain - 1))
        var cur = clean()
        docs += cur
        (1 until k).foreach { _ => cur = edit(cur, r); docs += cur }
        (0 until k).foreach(_ => chainOf += chains.size)
        chains += k
      }
    }
    while (docs.size < nDocs) { docs += clean(); chainOf += -1 }
    // Shuffle, then put each chain's revisions back in revision order over
    // the positions the chain drew.
    val order = scala.util.Random.javaRandomToRandom(r).shuffle(docs.indices.toVector)
    val out = order.map(docs).toArray
    order.indices.filter(p => chainOf(order(p)) >= 0).groupBy(p => chainOf(order(p))).values.foreach { ps =>
      val sorted = ps.sorted
      sorted.zip(ps.map(order).sorted).foreach { case (p, d) => out(p) = docs(d) }
    }
    (out.toIndexedSeq, Shape(nDocs, copies.filter(_ > 1).toSeq, chains.filter(_ > 1).toSeq))
  }
}
