package djbench

import java.security.MessageDigest
import java.util.stream.IntStream
import scala.util.hashing.MurmurHash3
import repro.core._
import repro.core.Deduplicators.{ExactDocDeduplicator, MinHashDeduplicator}
import repro.dist.DistExecutor

/** Output digest: SHA-256 over the output texts in id order, plus the row count.
  * Sample ids follow the order in which the input was written (see
  * [[Corpus.write]]), so a reference computed over the texts in that order
  * must give the same digest.
  */
final case class Digest(rows: Long, sha: String) {
  override def toString: String = s"$rows rows, sha256 ${sha.take(16)}"
}

object Digest {
  def of(textsInOrder: Iterable[String]): Digest = {
    val md = MessageDigest.getInstance("SHA-256")
    var n = 0L
    textsInOrder.foreach { t =>
      md.update(t.getBytes("UTF-8")); md.update(0.toByte); n += 1
    }
    Digest(n, md.digest().map("%02x".format(_)).mkString)
  }

  /** Digest of a written output (parquet with `id` and `text`). */
  def ofParquet(spark: org.apache.spark.sql.SparkSession, path: String): Digest =
    of(spark.read.parquet(path).select(Schema.Id, Schema.Text).collect()
      .map(r => (r.getLong(0), r.getString(1))).sortBy(_._1).map(_._2).toSeq)
}

/** References computed in plain Scala, outside all timing and independent of
  * the Spark execution path.
  *
  * A recipe here is a row segment (Mappers, then Filters) followed by at most
  * one Deduplicator. The row segment runs through `DistExecutor.applyRow`,
  * the row-level form of the same OP objects: first over the mapper prefix,
  * then over one filter at a time until the first rejection, which is
  * `applyRow` over the whole segment (its filters stop at the first
  * rejection and each reads only its own stats) and also yields which filter
  * dropped each document.
  */
object Reference {

  /** `labelRounds`: rounds a min-label propagation needs over the verified
    * near-duplicate edges, the last one finding no change (0 without MinHash).
    */
  final case class Result(output: IndexedSeq[String], dropShares: Seq[(String, Double)], removedByDedup: Int,
                          labelRounds: Int = 0)

  private def parallelMap[A, B: scala.reflect.ClassTag](xs: IndexedSeq[A])(f: A => B): IndexedSeq[B] = {
    val out = new Array[B](xs.size)
    IntStream.range(0, xs.size).parallel().forEach(i => out(i) = f(xs(i)))
    out.toIndexedSeq
  }

  def split(ops: Seq[Op]): (Seq[Mapper], Seq[Op], Option[Deduplicator]) = {
    val mappers = ops.takeWhile(_.isInstanceOf[Mapper]).map(_.asInstanceOf[Mapper])
    val rest = ops.drop(mappers.size)
    val filters = rest.takeWhile(o => o.isInstanceOf[Filter] || o.isInstanceOf[MetaFilter])
    val dedup = rest.drop(filters.size)
    require(dedup.size <= 1 && dedup.forall(_.isInstanceOf[Deduplicator]),
      s"reference handles Mappers, then Filters, then one Deduplicator; got ${ops.map(_.name)}")
    (mappers, filters, dedup.headOption.map(_.asInstanceOf[Deduplicator]))
  }

  /** Texts after the mapper prefix, one per input text. */
  def mapped(mappers: Seq[Mapper], texts: IndexedSeq[String]): IndexedSeq[String] =
    parallelMap(texts)(t => DistExecutor.applyRow(mappers, DistExecutor.Doc(0L, t, Map.empty)).get.text)

  /** The recipe's output, given the texts after its mapper prefix. */
  def run(ops: Seq[Op], mappedTexts: IndexedSeq[String]): Result = {
    val (_, filters, dedup) = split(ops)
    val rejectedBy: IndexedSeq[Int] = parallelMap(mappedTexts) { t =>
      val doc = DistExecutor.Doc(0L, t, Map.empty)
      filters.indexWhere(f => DistExecutor.applyRow(Seq(f), doc).isEmpty)
    }
    val kept = mappedTexts.indices.filter(rejectedBy(_) < 0)
    val shares = filters.zipWithIndex.map { case (f, i) =>
      f.name -> rejectedBy.count(_ == i).toDouble / math.max(1, mappedTexts.size)
    }
    val (survivors, rounds) = dedup match {
      case None                          => (kept, 0)
      case Some(_: ExactDocDeduplicator) => (keepFirstByContentHash(kept, mappedTexts), 0)
      case Some(m: MinHashDeduplicator)  => minhash(m, kept, mappedTexts)
      case Some(other)                   => sys.error(s"no reference for ${other.name}")
    }
    Result(survivors.map(mappedTexts), shares, kept.size - survivors.size, rounds)
  }

  /** Exact dedup: first occurrence of each normalized content hash, in input order. */
  def keepFirstByContentHash(rows: IndexedSeq[Int], texts: IndexedSeq[String]): IndexedSeq[Int] = {
    val hashes = parallelMap(rows)(i => Hashing.contentHash(texts(i)))
    val seen = scala.collection.mutable.HashSet.empty[Long]
    rows.indices.filter(k => seen.add(hashes(k))).map(rows)
  }

  /** MinHash-LSH near-dedup without Spark, with the deduplicator's own
    * parameters: `Hashing.minhash` signatures, band keys, buckets of 2 to
    * `maxBucket` members, star edges from each bucket's smallest id, the
    * signature-estimated Jaccard check, then union-find and keep the
    * smallest id of each component. Row positions stand in for ids: both
    * follow input order. Also returns the rounds a min-label propagation
    * needs: one more than the largest hop distance from a component's
    * smallest member.
    */
  def minhash(d: MinHashDeduplicator, rows: IndexedSeq[Int], texts: IndexedSeq[String]): (IndexedSeq[Int], Int) = {
    val perBand = d.numPerm / d.bands
    val sigs = parallelMap(rows)(i => Hashing.minhash(Tokenizers.words(texts(i)), d.numPerm, d.shingle, d.seed))
    val edges = scala.collection.mutable.HashSet.empty[(Int, Int)]
    (0 until d.bands).foreach { b =>
      val buckets = rows.indices.groupBy(k => MurmurHash3.arrayHash(sigs(k).slice(b * perBand, (b + 1) * perBand), d.seed))
      buckets.values.foreach { members =>
        if (members.size >= 2 && members.size <= d.maxBucket) {
          val sorted = members.sorted
          sorted.tail.foreach(k => edges += ((sorted.head, k)))
        }
      }
    }
    val parent = Array.tabulate(rows.size)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); var y = x
      while (parent(y) != r) { val n = parent(y); parent(y) = r; y = n }; r }
    val verified = edges.toSeq.filter { case (a, b) =>
      sigs(a).indices.count(p => sigs(a)(p) == sigs(b)(p)).toDouble / d.numPerm >= d.jaccard
    }
    verified.foreach { case (a, b) =>
      val (ra, rb) = (find(a), find(b))
      if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
    }
    val heads = rows.indices.filter(k => find(k) == k)
    (heads.map(rows), labelRounds(heads, verified))
  }

  private def labelRounds(heads: Seq[Int], edges: Seq[(Int, Int)]): Int = {
    val adj = (edges ++ edges.map(_.swap)).groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    val depths = heads.filter(adj.contains).map { h =>
      var frontier = Seq(h); val seen = scala.collection.mutable.HashSet(h); var depth = 0
      while (frontier.nonEmpty) {
        frontier = frontier.flatMap(adj(_)).filter(seen.add)
        if (frontier.nonEmpty) depth += 1
      }
      depth
    }
    if (depths.isEmpty) 0 else depths.max + 1
  }
}
