package djbench

import java.nio.file.{Files, Path}
import scala.util.Try

object Fs {
  /** Bytes of all regular files under `p`. */
  def bytes(p: Path): Long =
    if (!Files.exists(p)) 0L
    else {
      val s = Files.walk(p)
      try s.filter(Files.isRegularFile(_)).mapToLong(f => Try(Files.size(f)).getOrElse(0L)).sum()
      finally s.close()
    }

  def delete(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(f => Files.deleteIfExists(f))
      finally s.close()
    }
}
