package org.apache.spark

/** Waits until Spark's listener bus has delivered every posted event, so
  * that a test's listener has seen every job submitted before the call. The
  * bus is private to Spark; this object lives in Spark's package only to
  * reach it. */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
