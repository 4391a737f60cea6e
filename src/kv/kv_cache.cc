#include "kv/kv_cache.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "kv/kv_session.h"

namespace fasttts
{

namespace
{

size_t
blocksForTokens(int tokens, int block_tokens)
{
    if (tokens <= 0)
        return 0;
    return (static_cast<size_t>(tokens) + block_tokens - 1) / block_tokens;
}

} // namespace

KvCacheManager::KvCacheManager(double budget_bytes,
                               double kv_bytes_per_token, int block_tokens)
    : kvBytesPerToken_(kv_bytes_per_token), blockTokens_(block_tokens),
      alloc_(static_cast<size_t>(
          std::max(0.0, budget_bytes / kv_bytes_per_token / block_tokens)))
{
    // Root: the shared question prompt anchor. Permanently resident and
    // referenced so it can never be evicted.
    Node root;
    root.resident = true;
    root.refCount = 1;
    nodes_.push_back(root);
}

KvCacheManager::~KvCacheManager()
{
    if (ledger_ != nullptr)
        ledger_->release(ledgerCharged_);
}

void
KvCacheManager::attachLedger(KvBudgetLedger *ledger)
{
    assert(alloc_.used() == 0 && ledgerCharged_ == 0);
    ledger_ = ledger;
}

size_t
KvCacheManager::freeBlocks() const
{
    const size_t local = alloc_.free();
    if (ledger_ == nullptr)
        return local;
    // The same half-byte slack as KvBudgetLedger::charge(), so a
    // block the ledger would accept is never under-reported here.
    const double by_ledger =
        std::floor((ledger_->freeBytes() + 0.5) / blockBytes());
    if (by_ledger <= 0)
        return 0;
    return std::min(local, static_cast<size_t>(by_ledger));
}

double
KvCacheManager::residentBytes() const
{
    return static_cast<double>(alloc_.used()) * blockBytes();
}

bool
KvCacheManager::allocateBlocks(size_t n)
{
    if (!alloc_.allocate(n))
        return false;
    if (ledger_ != nullptr) {
        const double bytes = static_cast<double>(n) * blockBytes();
        if (!ledger_->charge(bytes)) {
            alloc_.release(n);
            return false;
        }
        ledgerCharged_ += bytes;
    }
    return true;
}

void
KvCacheManager::releaseBlocks(size_t n)
{
    alloc_.release(n);
    if (ledger_ != nullptr) {
        const double bytes = static_cast<double>(n) * blockBytes();
        ledger_->release(bytes);
        ledgerCharged_ = std::max(0.0, ledgerCharged_ - bytes);
    }
}

KvCacheManager::NodeId
KvCacheManager::childOf(NodeId parent, uint64_t seg_id) const
{
    for (const auto &[seg, id] : node(parent).children) {
        if (seg == seg_id)
            return id;
    }
    return kInvalid;
}

void
KvCacheManager::setRootTokens(int tokens)
{
    assert(tokens >= 0);
    // Prefix sums are cached at createChild time, so the mount must
    // precede the first child.
    assert(node(kRoot).children.empty());
    // The blocks stay with the global PrefixIndex: residentTokens_ /
    // residentBytes() deliberately exclude the mount, exactly like
    // the root's previous zero-token anchor.
    node(kRoot).tokens = tokens;
}

KvCacheManager::NodeId
KvCacheManager::createChild(NodeId parent, uint64_t seg_id, int tokens)
{
    assert(parent >= 0 && parent < static_cast<NodeId>(nodes_.size()));
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back();
    Node &n = node(id);
    n.segId = seg_id;
    n.parent = parent;
    n.tokens = tokens;
    const Node &p = node(parent);
    n.prefixTokens = p.prefixTokens + p.tokens;
    node(parent).children.emplace_back(seg_id, id);
    return id;
}

int
KvCacheManager::nodeTokens(NodeId id) const
{
    return node(id).tokens;
}

int
KvCacheManager::pathTokens(NodeId leaf) const
{
    const Node &n = node(leaf);
    return n.prefixTokens + n.tokens;
}

void
KvCacheManager::shiftDescendantPrefixes(NodeId id, int delta)
{
    if (delta == 0 || node(id).children.empty())
        return;
    dfsScratch_.clear();
    for (const auto &[seg, child] : node(id).children)
        dfsScratch_.push_back(child);
    while (!dfsScratch_.empty()) {
        const NodeId cur = dfsScratch_.back();
        dfsScratch_.pop_back();
        node(cur).prefixTokens += delta;
        for (const auto &[seg, child] : node(cur).children)
            dfsScratch_.push_back(child);
    }
}

KvCacheManager::NodeId
KvCacheManager::parentOf(NodeId id) const
{
    return node(id).parent;
}

bool
KvCacheManager::appendTokens(NodeId id, int delta, uint64_t tick,
                             bool allow_evict)
{
    assert(delta >= 0);
    Node &n = node(id);
    const int new_tokens = n.tokens + delta;
    if (n.resident) {
        const size_t need = blocksForTokens(new_tokens, blockTokens_)
            - n.blocksHeld;
        if (need > 0) {
            if (freeBlocks() < need
                && (!allow_evict || !reclaim(need))) {
                return false;
            }
            if (!allocateBlocks(need))
                return false;
            n.blocksHeld += need;
        }
        n.lastUse = tick;
        residentTokens_ += delta;
    }
    n.tokens = new_tokens;
    unsharedTokens_ += static_cast<long>(delta) * n.refCount;
    shiftDescendantPrefixes(id, delta);
    return true;
}

void
KvCacheManager::truncateTokens(NodeId id, int new_tokens)
{
    Node &n = node(id);
    assert(new_tokens >= 0 && new_tokens <= n.tokens);
    if (n.resident) {
        const size_t keep = blocksForTokens(new_tokens, blockTokens_);
        if (keep < n.blocksHeld) {
            releaseBlocks(n.blocksHeld - keep);
            n.blocksHeld = keep;
        }
        residentTokens_ -= n.tokens - new_tokens;
    }
    const int delta = new_tokens - n.tokens;
    n.tokens = new_tokens;
    unsharedTokens_ += static_cast<long>(delta) * n.refCount;
    shiftDescendantPrefixes(id, delta);
}

void
KvCacheManager::retain(NodeId leaf)
{
    for (NodeId id = leaf; id != kInvalid; id = node(id).parent)
        ++node(id).refCount;
    // One reference through every path node = one private copy of the
    // whole path in the unshared accounting.
    unsharedTokens_ += pathTokens(leaf);
}

void
KvCacheManager::release(NodeId leaf)
{
    for (NodeId id = leaf; id != kInvalid; id = node(id).parent) {
        Node &n = node(id);
        assert(n.refCount > 0);
        --n.refCount;
        // Nodes are never erased: beams keep (unpinned) references to
        // their leaves and may re-touch them. Unreferenced resident
        // nodes simply become eviction victims.
        if (n.refCount == 0 && n.resident)
            maybeEnqueueVictim(id);
    }
    unsharedTokens_ -= pathTokens(leaf);
}

int
KvCacheManager::refCount(NodeId id) const
{
    return node(id).refCount;
}

bool
KvCacheManager::evictable(const Node &n) const
{
    return n.resident && n.refCount == 0 && n.residentChildren == 0;
}

void
KvCacheManager::maybeEnqueueVictim(NodeId id)
{
    if (id == kRoot)
        return;
    Node &n = node(id);
    // One heap entry per node: re-enqueueing while an (older) entry is
    // still queued would grow the heap with duplicates on every
    // release/reclaim cycle; the live entry is refreshed lazily when it
    // surfaces in reclaim().
    if (n.inVictimHeap || !evictable(n))
        return;
    victims_.emplace(n.lastUse, id);
    n.inVictimHeap = true;
}

void
KvCacheManager::compactVictims()
{
    ++stats_.victimCompactions;
    std::vector<Victim> fresh;
    while (!victims_.empty()) {
        const auto [tick, id] = victims_.top();
        victims_.pop();
        Node &n = node(id);
        n.inVictimHeap = false;
        if (!evictable(n)) {
            ++stats_.staleVictimEntries;
            continue;
        }
        fresh.emplace_back(n.lastUse, id);
        n.inVictimHeap = true;
    }
    victims_ = std::priority_queue<Victim, std::vector<Victim>,
                                   std::greater<>>(std::greater<>(),
                                                   std::move(fresh));
}

bool
KvCacheManager::reclaim(size_t need_blocks)
{
    // Defensive bound: with one entry per node the heap cannot exceed
    // the resident set, but if stale (non-evictable) entries ever pile
    // up past it, rebuild once instead of popping them one by one.
    if (victims_.size()
        > 2 * static_cast<size_t>(residentCount_) + 16) {
        compactVictims();
    }
    bool rescanned = false;
    while (freeBlocks() < need_blocks) {
        // Surface the LRU victim, lazily discarding entries whose node
        // is no longer evictable and refreshing entries whose key is
        // stale (the node was touched after it was enqueued).
        while (!victims_.empty()) {
            const auto [tick, id] = victims_.top();
            Node &n = node(id);
            if (evictable(n) && n.lastUse == tick)
                break;
            victims_.pop();
            n.inVictimHeap = false;
            ++stats_.staleVictimEntries;
            if (evictable(n)) {
                // Still a candidate, just under an outdated key:
                // re-arm it with the current lastUse.
                victims_.emplace(n.lastUse, id);
                n.inVictimHeap = true;
            }
        }
        if (victims_.empty()) {
            if (rescanned)
                return false;
            // Rebuild candidates from a full scan (a node's
            // evictability may have changed without an enqueue event);
            // nodes already queued are skipped by maybeEnqueueVictim.
            for (NodeId id = 1; id < static_cast<NodeId>(nodes_.size());
                 ++id)
                maybeEnqueueVictim(id);
            rescanned = true;
            if (victims_.empty())
                return false;
            continue;
        }
        const NodeId id = victims_.top().second;
        victims_.pop();
        node(id).inVictimHeap = false;
        evictNode(id);
    }
    return true;
}

void
KvCacheManager::evictNode(NodeId id)
{
    Node &n = node(id);
    assert(evictable(n));
    n.evictedOnce = true;
    releaseBlocks(n.blocksHeld);
    n.blocksHeld = 0;
    n.resident = false;
    --residentCount_;
    residentTokens_ -= n.tokens;
    ++stats_.evictions;
    stats_.evictedTokens += static_cast<uint64_t>(n.tokens);
    const NodeId parent = n.parent;
    if (parent != kInvalid) {
        --node(parent).residentChildren;
        maybeEnqueueVictim(parent);
    }
}

void
KvCacheManager::markResident(NodeId id, uint64_t tick)
{
    Node &n = node(id);
    assert(!n.resident);
    n.resident = true;
    n.lastUse = tick;
    ++residentCount_;
    residentTokens_ += n.tokens;
    if (n.parent != kInvalid)
        ++node(n.parent).residentChildren;
}

KvCacheManager::TouchResult
KvCacheManager::ensureResident(NodeId leaf, uint64_t tick)
{
    // Collect root->leaf path (scratch reused across calls).
    std::vector<NodeId> &path = pathScratch_;
    path.clear();
    for (NodeId id = leaf; id != kInvalid; id = node(id).parent)
        path.push_back(id);
    std::reverse(path.begin(), path.end());

    // Pin the path so reclaim() cannot evict nodes we just placed.
    for (NodeId id : path)
        ++node(id).refCount;

    TouchResult result;
    result.ok = true;
    int reprefilled = 0;
    for (NodeId id : path) {
        Node &n = node(id);
        if (n.resident) {
            n.lastUse = tick;
            // Root tokens are the globally shared prefix mounted via
            // setRootTokens() (zero without one): the serving layer
            // accounts them once as prefixHitTokens, not per touch.
            if (id != kRoot)
                result.cachedTokens += n.tokens;
            continue;
        }
        const size_t need = blocksForTokens(n.tokens, blockTokens_);
        if (freeBlocks() < need && !reclaim(need)) {
            result.ok = false;
            break;
        }
        if (!allocateBlocks(need)) {
            result.ok = false;
            break;
        }
        n.blocksHeld = need;
        markResident(id, tick);
        result.recomputeTokens += n.tokens;
        if (n.evictedOnce)
            reprefilled += n.tokens;
    }

    for (NodeId id : path) {
        Node &n = node(id);
        --n.refCount;
        if (n.refCount == 0 && n.resident)
            maybeEnqueueVictim(id);
    }

    stats_.hitTokens += static_cast<uint64_t>(result.cachedTokens);
    stats_.missTokens += static_cast<uint64_t>(result.recomputeTokens);
    stats_.recomputedTokens
        += static_cast<uint64_t>(result.recomputeTokens);
    stats_.reprefilledTokens += static_cast<uint64_t>(reprefilled);
    return result;
}

bool
KvCacheManager::isResident(NodeId id) const
{
    return node(id).resident;
}

long
KvCacheManager::forceEvictAll()
{
    long dropped = 0;
    for (NodeId id = 1; id < static_cast<NodeId>(nodes_.size()); ++id) {
        Node &n = node(id);
        n.inVictimHeap = false;
        if (!n.resident)
            continue;
        releaseBlocks(n.blocksHeld);
        n.blocksHeld = 0;
        n.resident = false;
        n.residentChildren = 0;
        n.evictedOnce = true;
        --residentCount_;
        residentTokens_ -= n.tokens;
        dropped += n.tokens;
        ++stats_.preemptEvictions;
        stats_.preemptEvictedTokens += static_cast<uint64_t>(n.tokens);
    }
    // Only the root survives; its resident-children count and the
    // victim heap (every entry now stale) restart from scratch.
    node(kRoot).residentChildren = 0;
    victims_ = {};
    return dropped;
}

int
KvCacheManager::residentPrefixTokens(NodeId leaf) const
{
    // Residency is top-closed (a resident node's ancestors are
    // resident), so the resident prefix is the cached path length of
    // the deepest resident ancestor. The walk covers only the
    // non-resident suffix, which is empty or one node on the hot path.
    NodeId id = leaf;
    while (id != kInvalid && !node(id).resident)
        id = node(id).parent;
    return id == kInvalid ? 0 : pathTokens(id);
}

int
KvCacheManager::nodeCount() const
{
    return static_cast<int>(nodes_.size()) - 1;
}

int
KvCacheManager::residentNodeCount() const
{
    return residentCount_;
}

long
KvCacheManager::residentTokens() const
{
    return residentTokens_;
}

long
KvCacheManager::unsharedTokens() const
{
    // Without prefix sharing every beam privately stores its whole
    // path: sum over nodes of tokens * refCount (each active reference
    // through a node implies a private copy of that segment). The sum
    // is counter-backed by retain/release/append/truncate, so the
    // root's permanent constructor-time self-reference never
    // contributes — even when setRootTokens() mounts a shared prefix,
    // only beam retains count its tokens (once per retained path).
    return unsharedTokens_;
}

void
KvCacheManager::setBudgetBytes(double budget_bytes)
{
    alloc_.resize(static_cast<size_t>(
        std::max(0.0, budget_bytes / kvBytesPerToken_ / blockTokens_)));
}

double
KvCacheManager::budgetBytes() const
{
    return static_cast<double>(alloc_.total()) * blockTokens_
        * kvBytesPerToken_;
}

size_t
KvCacheManager::blocksFor(int tokens) const
{
    return blocksForTokens(tokens, blockTokens_);
}

} // namespace fasttts
