// Outside-in instrumentation for the end-to-end benchmark.
//
// Everything here uses only the simulated browser's public surface, so the
// program under test is measured without being modified:
//   - ProbeExtension: a browser::Extension installed once before and once
//     after the BrowserFlow plug-in. Extensions see tabs in registration
//     order, so the "before" probe's MutationObserver, submit listener and
//     XHR send wrapper run just before the plug-in's, and the "after"
//     probe's just after. (XHR wrappers nest: the after-probe's wrapper is
//     outermost, the before-probe's sits between the plug-in and the
//     network.) The brackets give the plug-in's hook self-time.
//   - TimingSink: a RequestSink decorator between Browser and SimNetwork
//     that times the simulated network and counts requests and bytes.
// Probes only record while `*active` is true; the untraced run does not
// install them at all.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "browser/forms.h"
#include "browser/http.h"
#include "browser/mutation_observer.h"

namespace e2e {

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Hook time accumulated during one user action. The harness zeroes it
/// before each traced action and closes any bracket left open after it.
struct HookTimes {
  std::uint64_t mutationNs = 0;   ///< plug-in MutationObserver callbacks
  std::uint64_t xhrOuterNs = 0;   ///< around the plug-in's send wrapper
  std::uint64_t xhrInnerNs = 0;   ///< around the page's original send
  std::uint64_t submitNs = 0;     ///< plug-in form submit listener
  std::uint64_t sendNs = 0;       ///< SimNetwork::handle
  std::uint64_t requests = 0;
  std::uint64_t requestBytes = 0;
  std::uint64_t mutationStart = 0;  ///< open bracket (0 = closed)
  std::uint64_t submitStart = 0;    ///< open bracket (0 = closed)

  /// A submit the plug-in suppressed never reaches the after-probe's
  /// listener; the bracket then closes when the page script regains
  /// control at `endNs`.
  void closeOpenBrackets(std::uint64_t endNs) {
    if (submitStart != 0) submitNs += endNs - submitStart;
    submitStart = 0;
    mutationStart = 0;
  }
  [[nodiscard]] std::uint64_t xhrHookNs() const {
    return xhrOuterNs > xhrInnerNs ? xhrOuterNs - xhrInnerNs : 0;
  }
};

/// Faults the harness self-test plants to prove each correctness check
/// trips. kNone in every measured run.
enum class Plant {
  kNone,
  kFlipLabel,       ///< ground truth: one leak labelled clean
  kForwardBlocked,  ///< after-probe forwards a blocked upload anyway
  kDropUpload,      ///< after-probe swallows one upload, answers 200
  kFailUpload,      ///< after-probe answers one upload with a 503
  kTornState,       ///< state directory damaged before recovery
  kSkewProbe,       ///< after-probe over-reports mutation hook time
};

class ProbeExtension final : public bf::browser::Extension {
 public:
  enum class Role { kBefore, kAfter };

  ProbeExtension(Role role, HookTimes* times, const bool* active,
                 Plant plant = Plant::kNone)
      : role_(role), times_(times), active_(active), plant_(plant) {}

  void onPageCreated(bf::browser::Page& page) override {
    auto state = std::make_unique<PageState>();
    state->page = &page;
    PageState* raw = state.get();
    state->observer = std::make_unique<bf::browser::MutationObserver>(
        [this, raw](const std::vector<bf::browser::MutationRecord>& records) {
          onMutations(*raw, records);
        });
    state->observer->observe(page.document().root());
    page.registerObserver(state->observer.get());
    auto next = page.xhrPrototype().send;
    page.xhrPrototype().send = [this, next, raw](
                                   bf::browser::Xhr& xhr,
                                   const bf::browser::HttpRequest& req) {
      return onSend(*raw, next, xhr, req);
    };
    pages_.push_back(std::move(state));
  }

  void onPageClosing(bf::browser::Page& page) override {
    for (auto it = pages_.begin(); it != pages_.end(); ++it) {
      if ((*it)->page != &page) continue;
      page.unregisterObserver((*it)->observer.get());
      pages_.erase(it);
      return;
    }
  }

  /// Planted faults act only once armed (at the start of the measured
  /// window), so set-up and warm-up traffic never trigger them.
  void arm() noexcept { armed_ = true; }

 private:
  struct PageState {
    bf::browser::Page* page = nullptr;
    std::unique_ptr<bf::browser::MutationObserver> observer;
    std::set<bf::browser::Node*> hookedForms;
  };
  using SendFn = decltype(bf::browser::XhrPrototype::send);

  void onMutations(PageState& state,
                   const std::vector<bf::browser::MutationRecord>& records) {
    hookNewForms(state, records);
    if (!*active_) return;
    if (role_ == Role::kBefore) {
      times_->mutationStart = nowNs();
      return;
    }
    if (times_->mutationStart == 0) return;
    std::uint64_t dt = nowNs() - times_->mutationStart;
    if (plant_ == Plant::kSkewProbe) dt *= 50;
    times_->mutationNs += dt;
    times_->mutationStart = 0;
  }

  /// Submit listeners run in registration order; the probes register
  /// from their observers, which the page flushes around the plug-in's.
  void hookNewForms(PageState& state,
                    const std::vector<bf::browser::MutationRecord>& records) {
    bool addedElement = false;
    for (const auto& r : records) {
      for (bf::browser::Node* n : r.addedNodes) {
        if (n->isElement()) addedElement = true;
      }
    }
    if (!addedElement) return;
    for (bf::browser::Node* form :
         state.page->document().root()->elementsByTag("form")) {
      if (!state.hookedForms.insert(form).second) continue;
      state.page->addSubmitListener(form, [this](bf::browser::SubmitEvent&) {
        if (!*active_) return;
        if (role_ == Role::kBefore) {
          times_->submitStart = nowNs();
        } else if (times_->submitStart != 0) {
          times_->submitNs += nowNs() - times_->submitStart;
          times_->submitStart = 0;
        }
      });
    }
  }

  bf::browser::HttpResponse onSend(PageState& state, const SendFn& next,
                                   bf::browser::Xhr& xhr,
                                   const bf::browser::HttpRequest& req) {
    if (role_ == Role::kAfter && armed_ && plant_ != Plant::kNone) {
      if (auto planted = plantedSend(state, next, xhr, req)) return *planted;
    }
    if (!*active_) return next(xhr, req);
    const std::uint64_t t0 = nowNs();
    bf::browser::HttpResponse resp = next(xhr, req);
    const std::uint64_t dt = nowNs() - t0;
    (role_ == Role::kAfter ? times_->xhrOuterNs : times_->xhrInnerNs) += dt;
    return resp;
  }

  /// Planted faults; each fires once: on the first blocked upload, the
  /// first pasted Docs paragraph (drop) or the first upload with text
  /// (fail).
  std::optional<bf::browser::HttpResponse> plantedSend(
      PageState& state, const SendFn& next, bf::browser::Xhr& xhr,
      const bf::browser::HttpRequest& req) {
    if (plantsFired_ > 0) return std::nullopt;
    const bool carriesText = req.body.find("text") != std::string::npos;
    const bool docsPaste = req.body.find("op=insert") != std::string::npos &&
                           req.body.size() > 200;
    switch (plant_) {
      case Plant::kForwardBlocked: {
        bf::browser::HttpResponse resp = next(xhr, req);
        if (resp.status == 403) {
          ++plantsFired_;
          (void)state.page->sink()->handle(req);
        }
        return resp;
      }
      case Plant::kDropUpload:
        if (!docsPaste) return std::nullopt;
        ++plantsFired_;
        return bf::browser::HttpResponse{200, "ok"};
      case Plant::kFailUpload:
        if (!carriesText) return std::nullopt;
        ++plantsFired_;
        return bf::browser::HttpResponse{503, "unavailable"};
      default:
        return std::nullopt;
    }
  }

  Role role_;
  HookTimes* times_;
  const bool* active_;
  Plant plant_;
  bool armed_ = false;
  std::uint64_t plantsFired_ = 0;
  std::vector<std::unique_ptr<PageState>> pages_;
};

/// Times the simulated network: every request the browser lets through.
class TimingSink final : public bf::browser::RequestSink {
 public:
  TimingSink(bf::browser::RequestSink* inner, HookTimes* times,
             const bool* active)
      : inner_(inner), times_(times), active_(active) {}

  bf::browser::HttpResponse handle(
      const bf::browser::HttpRequest& request) override {
    if (!*active_) return inner_->handle(request);
    const std::uint64_t t0 = nowNs();
    bf::browser::HttpResponse resp = inner_->handle(request);
    times_->sendNs += nowNs() - t0;
    ++times_->requests;
    times_->requestBytes += request.body.size();
    return resp;
  }

 private:
  bf::browser::RequestSink* inner_;
  HookTimes* times_;
  const bool* active_;
};

}  // namespace e2e
