#include "reputation/ledger.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace sybiltd::reputation {

ReputationLedger::ReputationLedger(LedgerOptions options)
    : options_(options) {
  SYBILTD_CHECK(options_.initial >= 0.0 && options_.initial <= 1.0,
                "initial reputation must be in [0, 1]");
  SYBILTD_CHECK(options_.ewma_alpha > 0.0 && options_.ewma_alpha <= 1.0,
                "EWMA alpha must be in (0, 1]");
  SYBILTD_CHECK(options_.floor >= 0.0 && options_.floor <= options_.initial,
                "floor must be in [0, initial]");
}

double ReputationLedger::get(const std::string& identity) const {
  const auto it = scores_.find(identity);
  return it == scores_.end() ? options_.initial : it->second;
}

bool ReputationLedger::known(const std::string& identity) const {
  return scores_.count(identity) > 0;
}

void ReputationLedger::update(const std::string& identity,
                              double campaign_score) {
  SYBILTD_CHECK(campaign_score >= 0.0 && campaign_score <= 1.0,
                "campaign score must be in [0, 1]");
  const double previous = get(identity);
  const double next = (1.0 - options_.ewma_alpha) * previous +
                      options_.ewma_alpha * campaign_score;
  scores_[identity] = std::max(next, options_.floor);
}

void ReputationLedger::update_campaign(
    const std::vector<std::string>& identities,
    const std::vector<double>& scores) {
  SYBILTD_CHECK(identities.size() == scores.size(),
                "identities/scores length mismatch");
  for (std::size_t i = 0; i < identities.size(); ++i) {
    update(identities[i], scores[i]);
  }
}

std::vector<double> normalize_scores(const std::vector<double>& weights) {
  double max_weight = 0.0;
  for (double w : weights) {
    SYBILTD_CHECK(w >= 0.0 && std::isfinite(w),
                  "weights must be finite and non-negative");
    max_weight = std::max(max_weight, w);
  }
  std::vector<double> scores(weights.size(), 0.0);
  if (max_weight <= 0.0) return scores;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    scores[i] = weights[i] / max_weight;
  }
  return scores;
}

ReputationWeightedCrh::ReputationWeightedCrh(
    const ReputationLedger& ledger,
    std::vector<std::string> account_identities, truth::CrhOptions options)
    : ledger_(ledger),
      identities_(std::move(account_identities)),
      options_(options) {}

truth::Result ReputationWeightedCrh::run(
    const truth::ObservationTable& data) const {
  SYBILTD_CHECK(identities_.size() == data.account_count(),
                "identity list does not match the account count");
  // Run plain CRH, then recompute the truth estimates with the weights
  // damped by each account's prior reputation.  One extra fixed-point
  // sweep lets the damped weights settle.
  truth::Result result = truth::Crh(options_).run(data);
  for (std::size_t sweep = 0; sweep < 2; ++sweep) {
    std::vector<double> damped(data.account_count());
    for (std::size_t i = 0; i < data.account_count(); ++i) {
      damped[i] = result.account_weights[i] * ledger_.get(identities_[i]);
    }
    for (std::size_t j = 0; j < data.task_count(); ++j) {
      double num = 0.0, den = 0.0;
      for (std::size_t idx : data.task_observations(j)) {
        const auto& obs = data.observations()[idx];
        num += damped[obs.account] * obs.value;
        den += damped[obs.account];
      }
      if (den > 0.0) result.truths[j] = num / den;
    }
    // Re-estimate CRH weights against the damped truths so the final
    // weights reflect both behaviour and reputation: one weight step from
    // the current truths.
    std::vector<double> losses(data.account_count(), 0.0);
    double total_loss = 0.0;
    for (const auto& obs : data.observations()) {
      if (std::isnan(result.truths[obs.task])) continue;
      const double sd = data.task_stddev(obs.task);
      const double norm = sd > 1e-12 ? sd : 1.0;
      const double diff = (obs.value - result.truths[obs.task]) / norm;
      losses[obs.account] += diff * diff;
    }
    for (std::size_t i = 0; i < data.account_count(); ++i) {
      if (data.account_observations(i).empty()) continue;
      losses[i] = std::max(losses[i], options_.loss_epsilon);
      total_loss += losses[i];
    }
    for (std::size_t i = 0; i < data.account_count(); ++i) {
      if (data.account_observations(i).empty()) {
        result.account_weights[i] = 0.0;
      } else {
        result.account_weights[i] = std::log(total_loss / losses[i]);
        if (result.account_weights[i] <= 0.0) result.account_weights[i] = 1.0;
      }
    }
  }
  // Final damped weights are what the caller should fold into the ledger.
  for (std::size_t i = 0; i < data.account_count(); ++i) {
    result.account_weights[i] *= ledger_.get(identities_[i]);
  }
  return result;
}

}  // namespace sybiltd::reputation
