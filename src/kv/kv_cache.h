/**
 * @file
 * Radix-tree KV cache manager with prefix sharing and LRU eviction.
 *
 * Reasoning beams in verifier-guided TTS form a tree: children created
 * by branching share their parent's entire KV prefix (paper Sec. 3.2.2,
 * Fig. 8). The manager stores one radix-tree node per *thinking-step
 * segment*; beams reference their leaf node and share all ancestors
 * physically (block refcounts), so "beams in memory" (Fig. 5), eviction
 * counts and recompute costs (Fig. 18) are measured quantities.
 *
 * Residency model: a node is resident when its blocks are allocated on
 * the device. Evicting a node frees its blocks; re-touching an evicted
 * node later costs a prefill *recompute* of its tokens, which is the
 * cost Dynamic Prefix-Aware Scheduling (Sec. 4.2) minimises. Only
 * nodes with zero active references and no resident children are
 * evictable; victims are chosen LRU.
 */

#ifndef FASTTTS_KV_KV_CACHE_H
#define FASTTTS_KV_KV_CACHE_H

#include <cstdint>
#include <queue>
#include <vector>

#include "kv/block_allocator.h"

namespace fasttts
{

/** Aggregate KV-cache statistics for one run. */
struct KvStats
{
    uint64_t evictions = 0;        //!< Nodes evicted.
    uint64_t evictedTokens = 0;    //!< Tokens whose KV was dropped.
    uint64_t recomputedTokens = 0; //!< Tokens prefilled on touch of a
                                   //!< non-resident node — first
                                   //!< materialisation AND re-prefill
                                   //!< (kept conflated for metric
                                   //!< compatibility).
    uint64_t reprefilledTokens = 0; //!< Strict subset of
                                    //!< recomputedTokens: tokens
                                    //!< re-prefilled on touch of a node
                                    //!< that was evicted before (LRU
                                    //!< or preemption).
    uint64_t hitTokens = 0;        //!< Tokens found resident on touch.
    uint64_t missTokens = 0;       //!< Tokens materialised on touch.
    uint64_t prefixHitTokens = 0;  //!< Prompt tokens mounted from the
                                   //!< global PrefixIndex instead of
                                   //!< being prefilled (saved
                                   //!< recompute; serving layer).
    uint64_t staleVictimEntries = 0; //!< Lazily-discarded heap entries.
    uint64_t victimCompactions = 0;  //!< Victim-heap rebuilds.
    uint64_t preemptEvictions = 0;     //!< Nodes dropped by forceEvictAll.
    uint64_t preemptEvictedTokens = 0; //!< Tokens dropped by forceEvictAll.
};

class KvBudgetLedger;

/**
 * Paged, prefix-sharing KV cache for a tree of reasoning beams.
 *
 * Node handles are stable ints; the root (id 0) is always resident and
 * holds the shared question prompt.
 */
class KvCacheManager
{
  public:
    using NodeId = int;
    static constexpr NodeId kRoot = 0;
    static constexpr NodeId kInvalid = -1;

    /**
     * @param budget_bytes Device bytes granted to this cache.
     * @param kv_bytes_per_token Model-specific KV footprint.
     * @param block_tokens Tokens per paged block (vLLM default 16).
     */
    KvCacheManager(double budget_bytes, double kv_bytes_per_token,
                   int block_tokens = 16);

    /** Releases any shared-ledger charge still held. */
    ~KvCacheManager();

    KvCacheManager(const KvCacheManager &) = delete;
    KvCacheManager &operator=(const KvCacheManager &) = delete;

    /**
     * Attach a shared byte budget (kv/kv_session.h). Every block this
     * manager allocates is additionally charged to the ledger (block
     * count x block bytes), and an exhausted ledger fails allocations
     * exactly like an exhausted local pool — after LRU reclaim has
     * been tried. Must be called while the manager holds no blocks;
     * pass nullptr to detach (only valid when nothing is charged).
     * The ledger must outlive the manager.
     */
    void attachLedger(KvBudgetLedger *ledger);

    /** The attached shared ledger (nullptr when standalone). */
    [[nodiscard]] KvBudgetLedger *ledger() const { return ledger_; }

    // ------------------------------------------------------------------
    // Tree structure
    // ------------------------------------------------------------------

    /** Child of parent holding segment seg_id, or kInvalid. */
    [[nodiscard]] NodeId childOf(NodeId parent, uint64_t seg_id) const;

    /**
     * Create a child node for a new thinking-step segment. The node
     * starts non-resident with zero references; call retain() +
     * ensureResident() to pin and materialise it.
     */
    [[nodiscard]] NodeId createChild(NodeId parent, uint64_t seg_id,
                                     int tokens);

    /**
     * Mount a globally shared prompt prefix of `tokens` tokens as the
     * root segment. The root stays permanently resident and holds no
     * blocks — the bytes live in (and are charged by) the global
     * PrefixIndex — so path lengths, context sizes and roofline times
     * include the prefix while this manager's pool does not pay for
     * it, and forceEvictAll() never drops it. Must be called
     * before any child exists (prefix sums are derived at
     * createChild time).
     */
    void setRootTokens(int tokens);

    /** Segment token count of a node. */
    [[nodiscard]] int nodeTokens(NodeId node) const;

    /** Total tokens on the root->leaf path (context length). O(1):
     *  served from a per-node cached prefix sum that createChild /
     *  appendTokens / truncateTokens maintain incrementally. */
    [[nodiscard]] int pathTokens(NodeId leaf) const;

    /** Parent node id (kInvalid for root). */
    [[nodiscard]] NodeId parentOf(NodeId node) const;

    /**
     * Grow a leaf segment by delta tokens (incremental decoding). When
     * the node is resident, newly needed blocks are allocated, evicting
     * LRU victims if required; returns false when memory cannot be
     * freed (caller must preempt).
     * @param allow_evict When false, only genuinely free blocks may be
     *        used (speculative work must never evict cache that
     *        standard beams still need).
     */
    [[nodiscard]] bool appendTokens(NodeId node, int delta, uint64_t tick,
                                    bool allow_evict = true);

    /** Shrink a leaf segment (speculative-token truncation). */
    void truncateTokens(NodeId node, int new_tokens);

    // ------------------------------------------------------------------
    // Reference counting (active beams)
    // ------------------------------------------------------------------

    /** Pin the whole root->leaf path (one active beam). */
    void retain(NodeId leaf);

    /** Unpin the path; nodes stay cached until evicted. */
    void release(NodeId leaf);

    /** Active references on a node. */
    [[nodiscard]] int refCount(NodeId node) const;

    // ------------------------------------------------------------------
    // Residency
    // ------------------------------------------------------------------

    /** Result of touching a path. */
    struct TouchResult
    {
        bool ok = false;          //!< Whole path resident on return.
        int cachedTokens = 0;     //!< Tokens already resident (hit).
        int recomputeTokens = 0;  //!< Tokens that must be re-prefilled.
    };

    /**
     * Make the whole root->leaf path resident, evicting LRU victims as
     * needed. recomputeTokens counts tokens of previously evicted or
     * never-materialised nodes; the caller charges prefill time for
     * them.
     */
    [[nodiscard]] TouchResult ensureResident(NodeId leaf, uint64_t tick);

    /** Whether a node's blocks are on device. */
    [[nodiscard]] bool isResident(NodeId node) const;

    /** Tokens of the path that are currently resident (prefix hit). */
    [[nodiscard]] int residentPrefixTokens(NodeId leaf) const;

    /**
     * Force-evict every resident node except the root, regardless of
     * reference counts — the whole-request preemption path (a
     * suspended request's beams keep their logical pins; their KV is
     * simply gone from the device until re-touched). Counted in
     * KvStats::preemptEvictions/preemptEvictedTokens, not in the LRU
     * eviction counters.
     * @return Tokens whose KV was dropped.
     */
    long forceEvictAll();

    // ------------------------------------------------------------------
    // Introspection / metrics
    // ------------------------------------------------------------------

    /** Pool accounting. */
    [[nodiscard]] const BlockAllocator &allocator() const { return alloc_; }

    /**
     * Blocks this manager could allocate right now without eviction:
     * the local pool's free count, further capped by the shared
     * ledger's remaining bytes when one is attached.
     */
    [[nodiscard]] size_t freeBlocks() const;

    /** Bytes one block of this manager occupies. */
    [[nodiscard]] double blockBytes() const
    {
        return blockTokens_ * kvBytesPerToken_;
    }

    /** Device bytes currently held (used blocks x block bytes). */
    [[nodiscard]] double residentBytes() const;

    /** Running statistics. */
    [[nodiscard]] const KvStats &stats() const { return stats_; }

    /** Number of nodes, excluding root. O(1). Nodes are never erased,
     *  so ids run from kRoot to nodeCount(). */
    [[nodiscard]] int nodeCount() const;

    /** Number of resident nodes, excluding root. */
    [[nodiscard]] int residentNodeCount() const;

    /** Total resident tokens (unique; prefix shared once). */
    [[nodiscard]] long residentTokens() const;

    /**
     * Tokens that would be resident if no prefix sharing existed
     * (every retained beam stores its full path privately). Used for
     * the "w/o prefix cache" series of Fig. 5. O(1): counter-backed,
     * maintained by retain/release/append/truncate.
     */
    [[nodiscard]] long unsharedTokens() const;

    /** Tokens per block. */
    [[nodiscard]] int blockTokens() const { return blockTokens_; }

    /** Model-specific KV footprint of one token. */
    [[nodiscard]] double kvBytesPerToken() const
    {
        return kvBytesPerToken_;
    }

    /** Re-plan the budget (asymmetric allocator updates). */
    void setBudgetBytes(double budget_bytes);

    /** Budget in bytes. */
    [[nodiscard]] double budgetBytes() const;

    /** Blocks needed for n tokens. */
    [[nodiscard]] size_t blocksFor(int tokens) const;

    /**
     * Maintenance: drop stale victim-heap entries (nodes that are no
     * longer evictable, counted in KvStats::staleVictimEntries) and
     * rebuild the heap from the surviving candidates. reclaim()
     * invokes this automatically behind a defensive bound when stale
     * entries pile up past the resident set; it is public so tests
     * and diagnostics can force the rebuild deterministically.
     */
    void compactVictims();

  private:
    struct Node
    {
        uint64_t segId = 0;
        NodeId parent = kInvalid;
        std::vector<std::pair<uint64_t, NodeId>> children;
        int tokens = 0;
        int prefixTokens = 0; //!< Path tokens of all strict ancestors.
        size_t blocksHeld = 0;
        int refCount = 0;
        int residentChildren = 0;
        bool resident = false;
        bool inVictimHeap = false; //!< Has exactly one victims_ entry.
        bool evictedOnce = false;  //!< Lost residency at least once
                                   //!< (LRU or preemption), so its next
                                   //!< materialisation is a re-prefill.
        uint64_t lastUse = 0;
    };

    Node &node(NodeId id) { return nodes_[static_cast<size_t>(id)]; }
    const Node &
    node(NodeId id) const
    {
        return nodes_[static_cast<size_t>(id)];
    }

    bool evictable(const Node &n) const;
    void maybeEnqueueVictim(NodeId id);
    /** allocate() on the local pool and charge the ledger; all-or-
     *  nothing. */
    bool allocateBlocks(size_t n);
    /** release() on the local pool and refund the ledger. */
    void releaseBlocks(size_t n);
    /** Evict LRU victims until at least need_blocks are free.
     *  @return true on success. */
    bool reclaim(size_t need_blocks);
    void evictNode(NodeId id);
    void markResident(NodeId id, uint64_t tick);
    /** Add delta to the cached prefix sums of every descendant of id.
     *  Hot-path appends hit leaves, so this is almost always a no-op. */
    void shiftDescendantPrefixes(NodeId id, int delta);

    double kvBytesPerToken_;
    int blockTokens_;
    BlockAllocator alloc_;
    KvBudgetLedger *ledger_ = nullptr; //!< Shared budget (optional).
    double ledgerCharged_ = 0;         //!< Bytes charged to ledger_.
    std::vector<Node> nodes_;
    KvStats stats_;
    int residentCount_ = 0;   //!< Resident nodes, excluding root.
    long residentTokens_ = 0; //!< Unique resident tokens.
    long unsharedTokens_ = 0; //!< Sum of tokens * refCount over nodes.
    std::vector<NodeId> dfsScratch_;  //!< Reused by prefix propagation.
    std::vector<NodeId> pathScratch_; //!< Reused by ensureResident.

    // Min-heap of (lastUse, node) eviction candidates. Each node has at
    // most one entry (Node::inVictimHeap); entries whose key no longer
    // matches the node's lastUse are lazily refreshed on pop.
    using Victim = std::pair<uint64_t, NodeId>;
    std::priority_queue<Victim, std::vector<Victim>, std::greater<>>
        victims_;
};

} // namespace fasttts

#endif // FASTTTS_KV_KV_CACHE_H
