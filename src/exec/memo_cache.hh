/**
 * @file
 * Generic once-per-key memoization cache for expensive pure builds.
 *
 * Extracted from the compiled-model cache so other pure, structurally
 * keyed artifacts (compiled GAN mappings, per-iteration task-DAG
 * templates) share one concurrency story:
 *
 *  - get() may be called concurrently; two threads racing on the same
 *    key build exactly once — the loser blocks on the winner's future.
 *  - Hit/miss counters are exact (a blocked racer counts as a hit),
 *    which the tests use to assert build-once behavior.
 *  - If the build throws, every blocked caller rethrows and the entry
 *    is dropped, so a later request can retry.
 *
 * The store is striped for scalability: keys hash onto kStripes
 * independent stripes, and within a stripe the *hit* path is lock-free
 * — it reads an immutable published map through an atomic raw pointer
 * and bumps a padded atomic hit counter, so a steady-state sweep (all
 * compiles warm) takes no lock on any thread. Only a miss touches the
 * stripe mutex, which implements the single-flight build: the builder
 * parks a shared future in the stripe's in-flight table, builds outside
 * the lock, then publishes a copy-on-write successor map. Racers that
 * arrive mid-build block on the future (and count as hits).
 *
 * Reclamation is deferred to the cache's destruction: a lock-free
 * reader may still be walking a superseded map, so every map a stripe
 * ever published stays alive in its retired list. Caches hold tens of
 * keys (one per model or (model, config) pair), so n keys in a stripe
 * retire n small maps of n^2/2 entries in total. A plain atomic pointer
 * is used rather than std::atomic<std::shared_ptr>, whose internal
 * lock ThreadSanitizer does not model.
 *
 * Values are handed out as shared immutable pointers: a cached value
 * may be used concurrently from many worker threads, so Value must be
 * safe to read (not mutate) in parallel.
 */

#ifndef LERGAN_EXEC_MEMO_CACHE_HH
#define LERGAN_EXEC_MEMO_CACHE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lergan {

/** Keyed build-once store of shared immutable values. */
template <typename Value>
class MemoCache
{
  public:
    using BuildFn = std::function<std::shared_ptr<const Value>()>;

    MemoCache()
    {
        for (Stripe &stripe : stripes_)
            stripe.publish(std::make_unique<const Map>());
    }

    /**
     * Return the value of @p key, invoking @p build on the first
     * request. Concurrent first requests build once; the other callers
     * block until the result is ready.
     *
     * @param was_hit when non-null, set to whether this request was
     *        served from the cache (racers blocked on an in-flight
     *        build count as hits, matching the counters).
     */
    std::shared_ptr<const Value>
    get(const std::string &key, const BuildFn &build,
        bool *was_hit = nullptr)
    {
        Stripe &stripe = stripeFor(key);
        {
            // Lock-free fast path: published maps are immutable and
            // never freed before the cache, so a hit needs only the
            // atomic pointer load (acquire pairs with the publishing
            // store) and a counter bump.
            const Map *published =
                stripe.published.load(std::memory_order_acquire);
            if (auto it = published->find(key); it != published->end()) {
                stripe.hits.fetch_add(1, std::memory_order_relaxed);
                if (was_hit)
                    *was_hit = true;
                return it->second;
            }
        }

        std::promise<std::shared_ptr<const Value>> promise;
        {
            std::unique_lock lock(stripe.mutex);
            // Re-check under the stripe lock: the key may have been
            // published — or its build may be in flight — since the
            // fast-path miss.
            const Map *published =
                stripe.published.load(std::memory_order_acquire);
            if (auto it = published->find(key); it != published->end()) {
                stripe.hits.fetch_add(1, std::memory_order_relaxed);
                if (was_hit)
                    *was_hit = true;
                return it->second;
            }
            if (auto it = stripe.inflight.find(key);
                it != stripe.inflight.end()) {
                stripe.hits.fetch_add(1, std::memory_order_relaxed);
                if (was_hit)
                    *was_hit = true;
                Future future = it->second;
                lock.unlock();
                return future.get(); // rethrows a racing build's failure
            }
            stripe.misses.fetch_add(1, std::memory_order_relaxed);
            if (was_hit)
                *was_hit = false;
            stripe.inflight.emplace(key, promise.get_future().share());
        }

        // Build outside the lock: different keys build in parallel;
        // racers on this key block on the shared future above.
        try {
            std::shared_ptr<const Value> value = build();
            {
                std::lock_guard lock(stripe.mutex);
                // Copy-on-write publish: successor map replaces the
                // published pointer, then the in-flight entry goes away
                // (same critical section, so every racer sees the key
                // in exactly one of the two tables).
                auto next = std::make_unique<Map>(*stripe.published.load(
                    std::memory_order_relaxed));
                (*next)[key] = value;
                stripe.publish(std::move(next));
                stripe.inflight.erase(key);
            }
            promise.set_value(value);
            return value;
        } catch (...) {
            promise.set_exception(std::current_exception());
            std::lock_guard lock(stripe.mutex);
            stripe.inflight.erase(key);
            throw;
        }
    }

    /** Requests served from the cache (exact). */
    std::uint64_t
    hits() const
    {
        std::uint64_t total = 0;
        for (const Stripe &stripe : stripes_)
            total += stripe.hits.load(std::memory_order_relaxed);
        return total;
    }

    /** Requests that had to build (exact). */
    std::uint64_t
    misses() const
    {
        std::uint64_t total = 0;
        for (const Stripe &stripe : stripes_)
            total += stripe.misses.load(std::memory_order_relaxed);
        return total;
    }

    /** Distinct values currently held (published + building). */
    std::size_t
    size() const
    {
        std::size_t total = 0;
        for (const Stripe &stripe : stripes_) {
            std::lock_guard lock(stripe.mutex);
            total += stripe.published.load(std::memory_order_relaxed)
                         ->size() +
                     stripe.inflight.size();
        }
        return total;
    }

    /**
     * Drop every entry and reset the counters. Safe to race get(): the
     * superseded maps, and so the values they point at, are released
     * with the cache, not here.
     */
    void
    clear()
    {
        for (Stripe &stripe : stripes_) {
            std::lock_guard lock(stripe.mutex);
            stripe.publish(std::make_unique<const Map>());
            stripe.inflight.clear();
            stripe.hits.store(0, std::memory_order_relaxed);
            stripe.misses.store(0, std::memory_order_relaxed);
        }
    }

  private:
    using Map = std::map<std::string, std::shared_ptr<const Value>>;
    using Future = std::shared_future<std::shared_ptr<const Value>>;

    /** Stripe count: a power of two well above the worker counts in
     *  use, so concurrent misses on different keys rarely collide. */
    static constexpr std::size_t kStripes = 16;

    struct alignas(64) Stripe {
        /** Immutable snapshot of this stripe's completed entries; the
         *  hit path reads it without the mutex. */
        std::atomic<const Map *> published{nullptr};
        mutable std::mutex mutex;
        /** Every map published so far, the current one last; owns them
         *  until the cache dies (guarded by mutex). */
        std::vector<std::unique_ptr<const Map>> retired;
        /** Single-flight table of builds in progress (guarded by
         *  mutex). */
        std::map<std::string, Future> inflight;
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> misses{0};

        /** Make @p map the published snapshot (mutex held, or the
         *  cache still under construction). */
        void
        publish(std::unique_ptr<const Map> map)
        {
            retired.push_back(std::move(map));
            published.store(retired.back().get(),
                            std::memory_order_release);
        }
    };

    Stripe &
    stripeFor(const std::string &key)
    {
        return stripes_[std::hash<std::string>{}(key) % kStripes];
    }

    std::array<Stripe, kStripes> stripes_;
};

} // namespace lergan

#endif // LERGAN_EXEC_MEMO_CACHE_HH
